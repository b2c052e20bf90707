package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/workload"
)

// repSummary is what the run keeps from one repetition once it is checked.
type repSummary struct {
	stream           int
	view             userView
	digest           string
	ready, nodeHours float64 // virtual s, h
	serveWall        float64 // s
	requests         int
	traced, profiled bool
}

// absorb checks one repetition and keeps what the summary needs from it,
// so that its simulated site can be freed before the next one is built.
// Only the profiled repetition, which the per-layer metrics read, is kept
// whole.
func (res *result) absorb(r *rep) {
	w, k := res.w, r.stream
	res.failed[k] = max(res.failed[k], checkRep(res, w, r))
	view := analyse(w, w.Spec(r.seed).Arrivals.Duration(), r.outs)
	checkMechanism(res, w, r, view)
	if res.stats[k] == nil {
		st := workload.Summarize(r.reqs)
		res.stats[k] = &st
	}
	if len(res.reps) == 0 {
		res.peakRSS = r.peakRSS
		for _, e := range r.st.engines {
			if x := e.Prefix(); x != nil {
				res.maxHeads = max(res.maxHeads, len(x.AppendSketch(nil, math.MaxInt)))
			}
		}
		if cs := r.st.coldStarts; len(cs) > 0 {
			origin := r.st.deployedAt.Add(r.st.ready)
			var parts []string
			for _, c := range cs {
				parts = append(parts, fmt.Sprintf("%.0fs→%.0fs", c.raised.Sub(origin).Seconds(), c.healthy.Sub(origin).Seconds()))
			}
			res.notes = append(res.notes, "cold starts (serve-relative, target raised → healthy): "+strings.Join(parts, " "))
		}
	}
	res.reps = append(res.reps, repSummary{
		stream: k, view: view, digest: digest(r.outs),
		ready: r.st.ready.Seconds(), nodeHours: r.st.nodeSeconds / 3600,
		serveWall: r.serveWall.Seconds(), requests: len(r.reqs),
		traced: r.traced, profiled: r.profiled,
	})
	if r.profiled {
		res.profiled = r
	}
}

// finish reduces the absorbed repetitions to the run's metrics: end-to-end
// metrics as medians over the repetitions, per-layer metrics from the
// profiled one, which is the last.
func (res *result) finish(traced bool, setups []time.Duration) {
	w := res.w
	var digests [streams]map[string]int
	for _, r := range res.reps {
		if digests[r.stream] == nil {
			digests[r.stream] = map[string]int{}
		}
		digests[r.stream][r.digest]++
	}
	var parts []string
	deterministic := true
	for k, dk := range digests {
		if dk == nil {
			continue
		}
		var ds []string
		for d, n := range dk {
			ds = append(ds, fmt.Sprintf("%s×%d", d, n))
		}
		sort.Strings(ds)
		parts = append(parts, fmt.Sprintf("stream %d: %s", k, strings.Join(ds, " ")))
		deterministic = deterministic && len(dk) == 1
	}
	res.notes = append(res.notes, fmt.Sprintf("outcome digests: %s (deterministic: %v; most prefix chain heads on one replica after the run: %d)",
		strings.Join(parts, "; "), deterministic, res.maxHeads))
	if w.Deterministic && !deterministic {
		res.fail("repetitions of one stream gave distinct outcome digests")
	}
	res.notes = append(res.notes, "stream 0, per step:")
	for k, win := range res.reps[0].view.windows {
		res.notes = append(res.notes, fmt.Sprintf("  step %d: %6.1f req/s offered, attainment %.4f (%d shed, %d late), TTFT tail %.1f ms, backlog %+.4f, pass %v",
			k+1, win.rate, win.attainment, win.shed, win.late, win.ttftTail, win.backlog, win.pass))
	}

	if traced {
		perLayer(res, w, res.profiled, res.reps[len(res.reps)-1].view)
		return
	}

	// pick reduces a virtual-time value to the run's: the median over each
	// stream's repetitions, then the mean over the streams.
	pick := func(f func(r repSummary) float64) float64 {
		var per [streams][]float64
		for _, r := range res.reps {
			per[r.stream] = append(per[r.stream], f(r))
		}
		sum, n := 0.0, 0
		for _, vals := range per {
			if len(vals) > 0 {
				sum += median(vals)
				n++
			}
		}
		return sum / float64(n)
	}
	v := res.reps[0].view
	_, ttftNote := tail(&v.ttft)
	_, itlNote := tail(&v.itl)
	_, e2eNote := tail(&v.e2e)
	itlKind := "per-request mean of client-timed gaps"
	if !w.Stream {
		itlKind = "per-request (E2E−TTFT)/(tokens−1), buffered"
	}
	res.notes = append(res.notes, fmt.Sprintf("virtual-time metrics: means over %d streams; sample counts are stream 0's", res.nStreams()))
	res.add("ttft_p50_ms", "ms", pick(func(r repSummary) float64 { return r.view.ttft.Median() }), fmt.Sprintf("n=%d, %d unknown", v.ttft.N(), v.unknownTTFT))
	res.add("ttft_p99_ms", "ms", pick(func(r repSummary) float64 { t, _ := tail(&r.view.ttft); return t }), ttftNote)
	res.add("itl_p50_ms", "ms", pick(func(r repSummary) float64 { return r.view.itl.Median() }), fmt.Sprintf("n=%d, %s", v.itl.N(), itlKind))
	res.add("itl_p99_ms", "ms", pick(func(r repSummary) float64 { t, _ := tail(&r.view.itl); return t }), itlNote)
	res.add("e2e_p50_ms", "ms", pick(func(r repSummary) float64 { return r.view.e2e.Median() }), fmt.Sprintf("n=%d", v.e2e.N()))
	res.add("e2e_p99_ms", "ms", pick(func(r repSummary) float64 { t, _ := tail(&r.view.e2e); return t }), e2eNote)
	res.add("slo_attainment", "ratio", pick(func(r repSummary) float64 { return r.view.slo }),
		fmt.Sprintf("of %d sent; TTFT ≤ %s interactive / %s batch%s", res.attempted(), interactiveTTFT, batchTTFT, itlNoteFor(w)))
	rateNote := "a lower bound: the highest offered window rate, never crossed"
	for _, r := range res.reps {
		if r.view.crossed {
			rateNote = windowNote()
			break
		}
	}
	res.add("max_rate_rps", "1/s", pick(func(r repSummary) float64 { return r.view.maxRate }), rateNote)
	// The deploy path has no randomness, so startup reads the same on every
	// seed. It is printed with the end-to-end metrics but reported to
	// machines as the per-layer core.ready_virtual_s, because a bounded
	// time must vary from run to run to be accepted as measured.
	res.metrics = append(res.metrics, metric{Name: "ready_virtual_s", Unit: "s", Value: pick(func(r repSummary) float64 { return r.ready }),
		Note: "deploy call → endpoint serves; same on every seed; per-layer core.ready_virtual_s", textOnly: true})
	res.add("node_hours", "h", pick(func(r repSummary) float64 { return r.nodeHours }), "GPU nodes held, deploy call → last response")
	var walls []string
	var rates []float64
	for _, r := range res.reps {
		walls = append(walls, fmt.Sprintf("%.2fs", r.serveWall))
		rates = append(rates, float64(r.requests)/r.serveWall)
	}
	res.add("sim_req_per_s", "1/s", median(rates), "median of serve phases "+strings.Join(walls, " "))
	var setup []float64
	for _, s := range setups {
		setup = append(setup, s.Seconds())
	}
	res.add("setup_s", "s", median(setup), fmt.Sprintf("median of %d set-ups", len(setups)))
	res.add("peak_rss_mb", "MB", res.peakRSS, "process high-water mark after the first deploy-and-serve")
}

func itlNoteFor(w *workloadDef) string {
	if w.Stream {
		return fmt.Sprintf(", mean ITL ≤ %s", itlLimit)
	}
	return ""
}

func windowNote() string {
	return fmt.Sprintf("best rate before the first window under %.0f%% attainment or growing a backlog, interpolated into it", 100*attainmentTarget)
}

// checkMechanism fails the run when the workload's reason for existing did
// not happen.
func checkMechanism(res *result, w *workloadDef, r *rep, v userView) {
	switch w.Name {
	case "chat-prefix":
		var promotions int64
		for _, e := range r.st.engines {
			promotions += e.Stats().TierPromotions
		}
		if promotions == 0 {
			res.fail("chat-prefix: no host-tier promotions; the tier was never used")
		}
	case "fleet-ladder":
		if !v.windows[0].pass || v.windows[len(v.windows)-1].pass {
			res.fail("fleet-ladder: bottom step pass=%v, top step pass=%v; the ladder must start inside capacity and end beyond it",
				v.windows[0].pass, v.windows[len(v.windows)-1].pass)
		}
	case "elastic-burst":
		if len(r.st.coldStarts) == 0 {
			res.fail("elastic-burst: no replica cold-started under load")
			return
		}
		before, during := coldStartTTFT(r)
		if during <= before {
			res.fail("elastic-burst: TTFT did not rise during cold starts (%.1f ms before, %.1f ms during)", before, during)
		}
	}
}

// coldStartTTFT is the median TTFT of requests dispatched before the first
// scale-up was asked for, and of those dispatched while one was pending.
func coldStartTTFT(r *rep) (before, during float64) {
	origin := r.st.deployedAt.Add(r.st.ready)
	first := r.st.coldStarts[0].raised.Sub(origin)
	var b, d metrics.Dist
	for i := range r.outs {
		o := &r.outs[i]
		if !o.ok() || o.ttft <= 0 {
			continue
		}
		if o.start < first {
			b.AddDuration(o.ttft)
			continue
		}
		for _, cs := range r.st.coldStarts {
			if o.start >= cs.raised.Sub(origin) && o.start < cs.healthy.Sub(origin) {
				d.AddDuration(o.ttft)
				break
			}
		}
	}
	return b.Median(), d.Median()
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// perLayer reports the traced run's per-layer metrics from its last,
// profiled repetition r.
func perLayer(res *result, w *workloadDef, r *rep, v userView) {
	var tracedWall, plainWall []float64
	for _, rs := range res.reps {
		switch {
		case rs.profiled:
		case rs.traced:
			tracedWall = append(tracedWall, rs.serveWall)
		default:
			plainWall = append(plainWall, rs.serveWall)
		}
	}
	n := float64(len(r.reqs))

	shares, samples, err := layerShares(r.profile)
	if err != nil {
		res.fail("cpu profile: %v", err)
	}
	for _, l := range layers {
		res.add(l+".cpu_share", "ratio", shares[l], fmt.Sprintf("%d profile samples", samples))
	}

	chunks := 0
	for i := range r.outs {
		if o := &r.outs[i]; o.ok() && w.Stream {
			chunks += len(o.itl) + 1
		}
	}
	res.add("bench.sse_chunks", "count", float64(chunks), "content deltas received")
	res.add("bench.ttft_unknown", "count", float64(v.unknownTTFT), "completed requests with no TTFT")
	for k, win := range v.windows {
		res.add(fmt.Sprintf("bench.step%d.attainment", k+1), "ratio", win.attainment,
			fmt.Sprintf("%.1f req/s offered, backlog %+.3f", win.rate, win.backlog))
	}
	for k, win := range v.windows {
		res.add(fmt.Sprintf("bench.step%d.ttft_p99_ms", k+1), "ms", win.ttftTail, "")
	}

	var retries, rejected, held, requests, spills, sketch, warmups int
	for _, gw := range r.st.gateways() {
		gs := gw.Stats()
		retries += gs.Retries
		rejected += gs.Rejected
		held += gs.Held
		requests += gs.Requests
		warmups += gs.Warmups
		spills += gw.SessionSpills()
		sketch += gw.SketchRoutes()
	}
	spans := stageSpans(r.traces)
	holds := spans.of(trace.StageHold)
	hold99, _ := tail(holds)
	res.add("ingress.retries", "count", float64(retries), "")
	res.add("ingress.rejected", "count", float64(rejected), "")
	res.add("ingress.held", "count", float64(held), "")
	res.add("ingress.spill_ratio", "ratio", ratio(float64(spills), float64(requests)), fmt.Sprintf("%d spills", spills))
	res.add("ingress.sketch_routes", "count", float64(sketch), "")
	res.add("ingress.warmups", "count", float64(warmups), "")
	res.add("ingress.hold_ms_p50", "ms", holds.Median(), "held requests only")
	res.add("ingress.hold_ms_p99", "ms", hold99, "")
	adm, admNote := tail(spans.of(trace.StageAdmission))
	res.add("ingress.admission_ms_p99", "ms", adm, admNote)

	var steps, preempts, misses int
	var tokens, hits, missesP, cached, evictions, dem, prom, drops int64
	var busy time.Duration
	for _, e := range r.st.engines {
		st := e.Stats()
		steps += st.Steps
		preempts += st.Preemptions
		misses += st.DeadlineMisses
		tokens += st.TokensOut
		busy += st.BusyTime
		hits += st.PrefixHits
		missesP += st.PrefixMisses
		cached += st.CachedTokens
		evictions += st.PrefixEvictions
		dem += st.TierDemotions
		prom += st.TierPromotions
		drops += st.HostDrops
	}
	var promptTokens int64
	for i := range r.outs {
		if o := &r.outs[i]; o.ok() {
			promptTokens += int64(o.req.PromptTokens)
		}
	}
	res.add("vllm.steps", "count", float64(steps), fmt.Sprintf("%d engines", len(r.st.engines)))
	res.add("vllm.tokens_per_step", "tokens/step", ratio(float64(tokens), float64(steps)), "")
	res.add("vllm.busy_frac", "ratio", ratio(busy.Seconds(), r.st.busySpan), "engine busy time over replica-seconds serving")
	queue := spans.of(trace.StageQueue)
	q99, qNote := tail(queue)
	res.add("vllm.queue_ms_p50", "ms", queue.Median(), "")
	res.add("vllm.queue_ms_p99", "ms", q99, qNote)
	res.add("vllm.prefill_ms_p50", "ms", spans.of(trace.StagePrefill).Median(), "")
	res.add("vllm.decode_ms_p50", "ms", spans.of(trace.StageDecode).Median(), "")
	pre, preNote := tail(spans.of(trace.StagePreempt))
	res.add("vllm.preempt_ms_p99", "ms", pre, preNote)
	res.add("vllm.preemptions", "count", float64(preempts), "")
	res.add("vllm.deadline_misses", "count", float64(misses), "")
	res.add("vllm.prefix_hit_ratio", "ratio", ratio(float64(hits), float64(hits+missesP)), fmt.Sprintf("%d of %d blocks", hits, hits+missesP))
	res.add("vllm.cached_token_share", "ratio", ratio(float64(cached), float64(promptTokens)), "cached over prompt tokens")
	res.add("vllm.evictions", "count", float64(evictions), "")
	res.add("vllm.tier_demotions", "count", float64(dem), "")
	res.add("vllm.tier_promotions", "count", float64(prom), "")
	res.add("vllm.promote_ratio", "ratio", ratio(float64(prom), float64(dem)), "promotions over demotions")
	res.add("vllm.host_drops", "count", float64(drops), "")

	res.add("telemetry.snapshot_age_ms", "ms", r.observeAge, "max over replicas at the end-of-run observation")

	var ups, downs int
	for _, dp := range r.st.deps {
		if as := dp.Autoscaler(); as != nil {
			ast := as.Status()
			ups += ast.ScaleUps
			downs += ast.ScaleDowns
		}
	}
	var cold metrics.Dist
	for _, cs := range r.st.coldStarts {
		cold.Add(cs.healthy.Sub(cs.raised).Seconds())
	}
	res.add("autoscale.scale_ups", "count", float64(ups), "")
	res.add("autoscale.scale_downs", "count", float64(downs), "")
	res.add("autoscale.coldstart_s", "s", cold.Median(), fmt.Sprintf("median of %d, target raised → replica healthy", cold.N()))
	res.add("core.launches", "count", float64(len(r.st.backends)), "replica deploys that registered")
	res.add("core.ready_virtual_s", "s", r.st.ready.Seconds(), "deploy call → endpoint serves")

	res.add("sim.events", "count", float64(r.events), "serve phase")
	res.add("sim.events_per_req", "events/req", float64(r.events)/n, "")
	res.add("runtime.allocs_per_req", "allocs/req", float64(r.mallocs)/n, "")
	res.add("runtime.bytes_per_req", "B/req", float64(r.allocBytes)/n, "")
	res.add("runtime.gc_count", "count", float64(r.gcs), "")
	res.add("workload.generate_s", "s", r.generateWall.Seconds(), "")
	res.add("trace.overhead", "ratio", median(tracedWall)/median(plainWall)-1,
		fmt.Sprintf("traced ÷ untraced serve wall − 1, %d+%d phases", len(tracedWall), len(plainWall)))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// stageDists holds span durations per stage, in ms. Zero-length hold spans
// are left out: every settled trace carries one, so only requests that were
// actually held count toward the hold wait.
type stageDists map[trace.Stage]*metrics.Dist

func stageSpans(ts []*trace.Trace) stageDists {
	out := stageDists{}
	for _, t := range ts {
		for _, s := range t.Spans {
			if s.Stage == trace.StageHold && s.Dur() == 0 {
				continue
			}
			out.of(s.Stage).AddDuration(s.Dur())
		}
	}
	return out
}

// of returns the stage's distribution, empty if no span was recorded.
func (s stageDists) of(stage trace.Stage) *metrics.Dist {
	if s[stage] == nil {
		s[stage] = &metrics.Dist{}
	}
	return s[stage]
}
