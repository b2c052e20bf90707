package main

import (
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/sim"
	"repro/internal/workload"
)

// shedSecond answers every chat call after a short wait, except a
// session's second call, which admission control rejects.
type shedSecond struct{ calls map[string]int }

func (t *shedSecond) DoChat(p *sim.Proc, job bench.ChatJob) (bench.Outcome, error) {
	t.calls[job.Session]++
	p.Sleep(10 * time.Millisecond)
	if t.calls[job.Session] == 2 {
		return bench.Outcome{}, &bench.StatusError{Code: 503}
	}
	return bench.Outcome{Generated: job.MaxNewTokens, TTFT: time.Millisecond}, nil
}

func TestRecorderMatchesTurnAfterShed(t *testing.T) {
	req := func(session, turn int, at time.Duration) workload.Request {
		return workload.Request{AtMicros: at.Microseconds(), Cohort: "chat", Session: session, Turn: turn,
			Model: "m", NewTokens: 8, PromptTokens: 8, OutputTokens: 4}
	}
	reqs := []workload.Request{req(0, 0, 0), req(1, 0, 0), req(0, 1, time.Second), req(0, 2, 2*time.Second)}
	eng := sim.NewEngine(1)
	rec := newRecorder(&shedSecond{calls: map[string]int{}}, reqs)
	var res *bench.WorkloadResult
	eng.Go("client", func(p *sim.Proc) {
		rec.origin = p.Now()
		res = bench.RunWorkload(p, rec, "t", reqs)
	})
	eng.Run()

	if rec.unmatched != 0 {
		t.Fatalf("unmatched calls = %d, want 0", rec.unmatched)
	}
	if res.Completed != 3 || res.Shed != 1 || res.Failed != 0 {
		t.Fatalf("completed/shed/failed = %d/%d/%d, want 3/1/0", res.Completed, res.Shed, res.Failed)
	}
	for i, o := range rec.all {
		if !o.sent {
			t.Fatalf("request %d (session %d turn %d) never matched a call", i, o.req.Session, o.req.Turn)
		}
		wantShed := o.req.Session == 0 && o.req.Turn == 1
		if o.shed != wantShed || (!wantShed && (o.err != nil || o.gen != o.req.OutputTokens)) {
			t.Errorf("session %d turn %d: shed=%v err=%v gen=%d", o.req.Session, o.req.Turn, o.shed, o.err, o.gen)
		}
	}
}
