package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"time"

	"repro/internal/bench"
	"repro/internal/sim"
	"repro/internal/workload"
)

// outcome is one request as the client saw it, in virtual time.
type outcome struct {
	req   *workload.Request
	sent  bool
	start time.Duration // dispatch, as an offset from the serve start
	end   time.Duration
	ttft  time.Duration // 0 = unknown
	itl   []time.Duration
	gen   int
	shed  bool
	err   error
}

func (o *outcome) e2e() time.Duration { return o.end - o.start }

func (o *outcome) ok() bool { return o.sent && o.err == nil }

// recorder wraps the ChatTarget that bench.RunWorkload drives: it is the
// client span of every request. Requests are matched back to the generated
// stream by session key and turn. A session's turns are sent one after
// another, so its k-th call is turn k; the message count cannot tell, since
// a shed turn never joins the history.
type recorder struct {
	inner  bench.ChatTarget
	origin time.Time
	byKey  map[string]*outcome
	calls  map[string]int // calls made so far per session
	all    []outcome
	// unmatched counts calls that map to no generated request, or to one
	// already sent: the stream and the client disagree.
	unmatched int
}

func newRecorder(inner bench.ChatTarget, reqs []workload.Request) *recorder {
	r := &recorder{inner: inner, byKey: make(map[string]*outcome, len(reqs)), calls: map[string]int{},
		all: make([]outcome, len(reqs))}
	for i := range reqs {
		r.all[i].req = &reqs[i]
		r.byKey[turnKey(reqs[i].SessionKey(), reqs[i].Turn)] = &r.all[i]
	}
	return r
}

func turnKey(session string, turn int) string { return fmt.Sprintf("%s/%d", session, turn) }

// DoChat implements bench.ChatTarget.
func (r *recorder) DoChat(p *sim.Proc, job bench.ChatJob) (bench.Outcome, error) {
	turn := r.calls[job.Session]
	r.calls[job.Session] = turn + 1
	o := r.byKey[turnKey(job.Session, turn)]
	start := p.Now()
	if o == nil || o.sent {
		r.unmatched++
		o = nil
	} else {
		o.sent = true
	}
	out, err := r.inner.DoChat(p, job)
	if o != nil {
		o.start = start.Sub(r.origin)
		o.end = p.Now().Sub(r.origin)
		o.ttft, o.itl, o.gen, o.err = out.TTFT, out.ITL, out.Generated, err
		o.shed = bench.Shed(err)
	}
	return out, err
}

// digest hashes every request's virtual outcome in stream order, so two
// runs of one seed compare byte for byte.
func digest(all []outcome) string {
	h := sha256.New()
	var buf [8 * 6]byte
	for i := range all {
		o := &all[i]
		status := int64(0)
		switch {
		case !o.sent:
			status = 3
		case o.shed:
			status = 1
		case o.err != nil:
			status = 2
		}
		for j, v := range []int64{status, int64(o.start), int64(o.ttft), int64(o.e2e()), int64(o.gen), int64(len(o.itl))} {
			binary.LittleEndian.PutUint64(buf[8*j:], uint64(v))
		}
		h.Write(buf[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}
