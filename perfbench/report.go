package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workload"
)

// metric is one reported number.
type metric struct {
	Name  string
	Unit  string
	Value float64
	Note  string // sample count, percentile used, or how it was derived
	// textOnly metrics are printed but left out of the JSON summary.
	textOnly bool
}

// result is a whole run: its metrics and the correctness gate's verdict.
type result struct {
	w        *workloadDef
	seed     int64
	stats    [streams]*workload.Stats // nil until the stream is served
	failed   [streams]int             // most failed requests in one repetition of the stream
	peakRSS  float64
	maxHeads int // most prefix chain heads on one replica after the first repetition
	reps     []repSummary
	profiled *rep
	metrics  []metric
	failures []string
	notes    []string
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summaryJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func (r *result) summary() summaryJSON {
	failed := 0
	for _, f := range r.failed {
		failed += f
	}
	s := summaryJSON{Correct: len(r.failures) == 0, Attempted: r.attempted(), Failed: failed,
		Metrics: make(map[string]metricJSON, len(r.metrics))}
	for _, m := range r.metrics {
		if m.textOnly {
			continue
		}
		s.Metrics[m.Name] = metricJSON{Value: m.Value, Unit: m.Unit}
	}
	return s
}

func (r *result) print(out io.Writer) {
	fmt.Fprintf(out, "workload %s (seed %d): %s\n", r.w.Name, r.seed, r.w.Why)
	fmt.Fprintf(out, "%d repetitions over %d request streams\n", len(r.reps), r.nStreams())
	for k, st := range r.stats {
		if st != nil {
			fmt.Fprintf(out, "stream %d (seed %d): %d requests, %d sessions, %d clients, %s arrival span\n",
				k, streamSeed(r.seed, k), st.Requests, st.Sessions, st.Clients, st.Span.Round(time.Second))
		}
	}
	for _, n := range r.notes {
		fmt.Fprintln(out, n)
	}
	for _, m := range r.metrics {
		note := ""
		if m.Note != "" {
			note = "  (" + m.Note + ")"
		}
		fmt.Fprintf(out, "  %-28s %14.4f %-10s%s\n", m.Name, m.Value, m.Unit, note)
	}
	if len(r.failures) == 0 {
		fmt.Fprintln(out, "correctness gate: pass")
		return
	}
	for _, f := range r.failures {
		fmt.Fprintln(out, "correctness gate: FAIL:", f)
	}
}

// attempted is the number of requests in the streams served, each counted
// once however often it was repeated.
func (r *result) attempted() int {
	n := 0
	for _, st := range r.stats {
		if st != nil {
			n += st.Requests
		}
	}
	return n
}

func (r *result) nStreams() int {
	n := 0
	for _, st := range r.stats {
		if st != nil {
			n++
		}
	}
	return n
}

func (r *result) add(name, unit string, v float64, note string) {
	r.metrics = append(r.metrics, metric{Name: name, Unit: unit, Value: v, Note: note})
}

// fail records a correctness failure once, however many repetitions hit it.
func (r *result) fail(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if !slices.Contains(r.failures, msg) {
		r.failures = append(r.failures, msg)
	}
}

// --- distributions --------------------------------------------------------

// tailQ is the highest percentile, at most p99, with at least ten samples
// beyond it.
func tailQ(n int) float64 {
	if n >= 1000 {
		return 0.99
	}
	if n < 20 {
		return 0.5
	}
	return math.Floor(100*(1-10/float64(n))) / 100
}

// tail reports the highest supported percentile and a note naming it.
func tail(d *metrics.Dist) (float64, string) {
	q := tailQ(d.N())
	return d.Quantile(q), fmt.Sprintf("p%s of n=%d", strconv.FormatFloat(100*q, 'f', -1, 64), d.N())
}

func median(v []float64) float64 {
	var d metrics.Dist
	for _, x := range v {
		d.Add(x)
	}
	return d.Median()
}

// --- per-repetition analysis ----------------------------------------------

// window is one equal slice of the arrival schedule (one rate step on
// fleet-ladder and elastic-burst), judged by the requests due in it.
type window struct {
	rate       float64 // offered requests per virtual second
	n, met     int
	shed, late int // misses by admission rejection and by latency
	attainment float64
	ttftTail   float64
	backlog    float64 // growth in requests awaiting a first token over the window, per arrival
	pass       bool
}

// userView is what users of the service saw in one repetition.
type userView struct {
	ttft, itl, e2e metrics.Dist
	slo            float64
	windows        []window
	maxRate        float64
	crossed        bool // some window fell behind, so maxRate is not a lower bound
	unknownTTFT    int
}

func (o *outcome) ttftLimit() time.Duration {
	if o.req.Class == "batch" {
		return batchTTFT
	}
	return interactiveTTFT
}

// meanITL is the request's mean gap between output tokens: measured gaps
// when streamed; (E2E − TTFT)/(tokens − 1) when buffered, which is all a
// buffered client can know. ok is false when it cannot be computed.
func (o *outcome) meanITL(stream bool) (time.Duration, bool) {
	if stream {
		if len(o.itl) == 0 {
			return 0, false
		}
		var sum time.Duration
		for _, g := range o.itl {
			sum += g
		}
		return sum / time.Duration(len(o.itl)), true
	}
	if o.ttft <= 0 || o.gen < 2 {
		return 0, false
	}
	return (o.e2e() - o.ttft) / time.Duration(o.gen-1), true
}

// meets reports whether a sent request met its class's latency limits.
// Shed and failed requests miss; so does a request of unknown TTFT.
func (o *outcome) meets(stream bool) bool {
	if !o.ok() || o.ttft <= 0 || o.ttft > o.ttftLimit() {
		return false
	}
	if stream {
		if itl, ok := o.meanITL(true); ok && itl > itlLimit {
			return false
		}
	}
	return true
}

func analyse(w *workloadDef, span time.Duration, outs []outcome) userView {
	var v userView
	met := 0
	for i := range outs {
		o := &outs[i]
		if o.meets(w.Stream) {
			met++
		}
		if !o.ok() {
			continue
		}
		v.e2e.AddDuration(o.e2e())
		if o.ttft > 0 {
			v.ttft.AddDuration(o.ttft)
		} else {
			v.unknownTTFT++
		}
		if itl, ok := o.meanITL(w.Stream); ok {
			v.itl.AddDuration(itl)
		}
	}
	v.slo = float64(met) / float64(len(outs))
	v.windows = windowsOf(w, span, outs)
	v.maxRate, v.crossed = maxRate(v.windows)
	return v
}

func windowsOf(w *workloadDef, span time.Duration, outs []outcome) []window {
	width := span / windows
	ws := make([]window, windows)
	tails := make([]metrics.Dist, windows)
	for i := range outs {
		o := &outs[i]
		k := int(o.req.At() / width)
		if k >= windows {
			continue // a later turn of a session started inside the schedule
		}
		ws[k].n++
		switch {
		case o.meets(w.Stream):
			ws[k].met++
		case o.shed:
			ws[k].shed++
		default:
			ws[k].late++
		}
		if o.ok() && o.ttft > 0 {
			tails[k].AddDuration(o.ttft)
		}
	}
	// queued counts requests sent but still waiting for their first token
	// at t: the backlog the service has not started answering.
	queued := func(t time.Duration) int {
		n := 0
		for i := range outs {
			o := &outs[i]
			first := o.end
			if o.ttft > 0 {
				first = o.start + o.ttft
			}
			if o.sent && o.start <= t && first > t {
				n++
			}
		}
		return n
	}
	for k := range ws {
		win := &ws[k]
		win.rate = float64(win.n) / width.Seconds()
		if win.n > 0 {
			win.attainment = float64(win.met) / float64(win.n)
			grow := queued(time.Duration(k+1)*width) - queued(time.Duration(k)*width)
			win.backlog = float64(grow) / float64(win.n)
		}
		win.ttftTail, _ = tail(&tails[k])
		win.pass = win.n > 0 && win.attainment >= attainmentTarget && win.backlog*float64(win.n) <= max(1, backlogTolerance*float64(win.n))
	}
	return ws
}

// maxRate is the highest offered rate the service kept up with before it
// first fell behind: windows are taken in schedule order, and at the first
// failing window the figure is interpolated from the best rate so far
// toward that window's rate by attainment, so that it moves smoothly with
// capacity instead of jumping a whole step. On a rising ladder this is the
// highest step meeting the limits. crossed is false when no window fell
// behind; the figure is then the highest rate offered, a lower bound set by
// the generated stream rather than by the service.
func maxRate(ws []window) (rate float64, crossed bool) {
	best, bestAtt := 0.0, 0.0
	for _, win := range ws {
		if win.n == 0 {
			continue
		}
		if win.pass {
			if win.rate > best {
				best, bestAtt = win.rate, win.attainment
			}
			continue
		}
		if best > 0 && win.rate > best && win.attainment < attainmentTarget {
			best += (win.rate - best) * (bestAtt - attainmentTarget) / (bestAtt - win.attainment)
		}
		return best, true
	}
	return best, false
}

// --- correctness ----------------------------------------------------------

// checkRep applies the correctness gate to one repetition and returns how
// many requests failed other than by an admission shed.
func checkRep(res *result, w *workloadDef, r *rep) (failed int) {
	sent, ok, shed := 0, 0, 0
	for i := range r.outs {
		o := &r.outs[i]
		if !o.sent {
			continue
		}
		sent++
		switch {
		case o.shed:
			shed++
		case o.err != nil:
			failed++
			if failed <= 3 {
				res.fail("request %s turn %d failed: %v", o.req.SessionKey(), o.req.Turn, o.err)
			}
		default:
			ok++
			if o.gen != o.req.OutputTokens {
				res.fail("request %s turn %d: %d tokens, want %d", o.req.SessionKey(), o.req.Turn, o.gen, o.req.OutputTokens)
			} else if w.Stream && len(o.itl) != o.gen-1 {
				res.fail("request %s turn %d: %d gaps for %d tokens (re-emitted or lost tokens)", o.req.SessionKey(), o.req.Turn, len(o.itl), o.gen)
			}
		}
	}
	if r.unmatched > 0 {
		res.fail("%d client calls matched no generated request", r.unmatched)
	}
	if sent != len(r.reqs) {
		res.fail("sent %d of %d generated requests", sent, len(r.reqs))
	}
	if got := r.result.Completed + r.result.Shed + r.result.Failed; got != r.result.Requests || r.result.Requests != len(r.reqs) {
		res.fail("completed %d + shed %d + failed %d != sent %d", r.result.Completed, r.result.Shed, r.result.Failed, len(r.reqs))
	}
	if r.result.Completed != ok || r.result.Shed != shed || r.result.Failed != failed {
		res.fail("client tallies %d/%d/%d disagree with bench's %d/%d/%d", ok, shed, failed,
			r.result.Completed, r.result.Shed, r.result.Failed)
	}
	for i, e := range r.st.engines {
		st := e.Stats()
		if st.LeakedBlocks != 0 {
			res.fail("replica engine %d leaked %d KV blocks", i, st.LeakedBlocks)
		}
		held := 0
		if x := e.Prefix(); x != nil {
			held = x.CachedBlocks()
		}
		if used := e.KV().UsedBlocks(); used != held {
			res.fail("replica engine %d holds %d KV blocks after the run, %d of them cache", i, used, held)
		}
	}
	if r.traced {
		checkTraces(res, r)
	}
	return failed
}

// spanSlack absorbs the microsecond rounding of virtual timestamps.
const spanSlack = time.Microsecond

// checkTraces reconciles the gateway spans with the client's view: every
// sent request left one settled trace, each trace's spans lie inside it and
// (preempt aside, which overlaps the re-run) sum to no more than its E2E,
// and no trace is longer than the client-observed latency it belongs to —
// checked by pairing sorted durations, which succeeds whenever any pairing
// does.
func checkTraces(res *result, r *rep) {
	sent := 0
	var client []time.Duration
	for i := range r.outs {
		if r.outs[i].sent {
			sent++
			client = append(client, r.outs[i].e2e())
		}
	}
	if int(r.tracesSeen) != sent || len(r.traces) != sent {
		res.fail("traced %d requests, %d settled, want %d", r.tracesSeen, len(r.traces), sent)
		return
	}
	gw := make([]time.Duration, 0, len(r.traces))
	for _, t := range r.traces {
		if !t.Done() {
			res.fail("trace %s never finished", t.ID)
			return
		}
		var sum time.Duration
		for _, s := range t.Spans {
			if s.Start.Before(t.Start.Add(-spanSlack)) || s.End.After(t.End.Add(spanSlack)) || s.End.Before(s.Start) {
				res.fail("trace %s: %s span outside its request", t.ID, s.Stage)
				return
			}
			if s.Stage != trace.StagePreempt {
				sum += s.Dur()
			}
		}
		if sum > t.E2E()+spanSlack*time.Duration(len(t.Spans)) {
			res.fail("trace %s: spans sum to %s, more than its E2E %s", t.ID, sum, t.E2E())
			return
		}
		gw = append(gw, t.E2E())
	}
	sort.Slice(gw, func(i, j int) bool { return gw[i] < gw[j] })
	sort.Slice(client, func(i, j int) bool { return client[i] < client[j] })
	for i := range gw {
		if gw[i] > client[i]+spanSlack {
			res.fail("gateway traces outlast client latencies (%s > %s at rank %d)", gw[i], client[i], i)
			return
		}
	}
}
