package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"repro/internal/bench"
	"repro/internal/sim"
	"repro/internal/site"
	"repro/internal/trace"
	"repro/internal/vhttp"
	"repro/internal/workload"
)

// rep is one deploy-and-serve repetition.
type rep struct {
	stream           int   // index of the run's request stream
	seed             int64 // the stream's seed
	traced, profiled bool

	setupWall    time.Duration // site build + generation + deploy, to first dispatch
	generateWall time.Duration
	serveWall    time.Duration
	events       int64 // sim events stepped during the serve phase

	mallocs, allocBytes uint64
	gcs                 uint32

	reqs       []workload.Request
	outs       []outcome
	unmatched  int
	result     *bench.WorkloadResult
	st         *stack
	traces     []*trace.Trace
	tracesSeen uint64
	observeAge float64 // max replica snapshot age at the end-of-run observation, ms
	profile    []byte
	// peakRSS is the process's resident-set high-water mark in MB, read
	// after the run's first repetition, so that it does not depend on how
	// many repetitions fit in the run.
	peakRSS float64
}

// maxEvents bounds one repetition's simulation so that a livelock fails
// the run instead of hanging it.
const maxEvents = 200_000_000

// setupReps is the number of set-up timings a run takes at least; set-up
// is cheap next to serving, so extra set-up-only repetitions steady its
// median.
const setupReps = 15

// streams is the number of request streams a run draws from its seed. The
// virtual-time metrics are means over the streams, so that one run stands
// for more traffic than one generated stream holds and varies less from
// seed to seed.
const streams = 4

// streamSeed is the seed of a run's k-th stream: distinct for every seed
// and stream.
func streamSeed(seed int64, k int) int64 { return seed*streams + int64(k) }

// runWorkload repeats deploy-and-serve for about seconds of wall time, at
// least once per stream, and then checks and summarises the repetitions.
func runWorkload(w *workloadDef, seed int64, seconds int, traced bool) (*result, error) {
	budget := time.Duration(seconds) * time.Second
	begin := time.Now()
	res := &result{w: w, seed: seed}
	var setups []time.Duration
	for i := 0; ; i++ {
		// Repetitions cycle through the streams. Traced runs report no
		// end-to-end metrics; they pair an untraced and a traced
		// repetition of each stream so that their wall-time ratio is the
		// tracing overhead.
		k, tr, least := i%streams, false, streams
		if traced {
			k, tr, least = (i/2)%streams, i%2 == 1, 2
		}
		repStart := time.Now()
		r, err := runRep(w, seed, k, tr, false, true)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			r.peakRSS = peakRSSMB()
		}
		res.absorb(r)
		setups = append(setups, r.setupWall)
		// Stop when another repetition as long as this one would end
		// past the budget, so that a run keeps to its seconds.
		n := len(res.reps)
		if time.Since(begin)+time.Since(repStart) > budget && n >= least && (!traced || n%2 == 0) {
			break
		}
	}
	if traced {
		r, err := runRep(w, seed, 0, true, true, true)
		if err != nil {
			return nil, err
		}
		res.absorb(r)
	}
	for len(setups) < setupReps {
		r, err := runRep(w, seed, len(setups)%streams, false, false, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.setupWall)
	}
	res.finish(traced, setups)
	return res, nil
}

// runRep builds a site, deploys the workload's stack and, when serve is
// set, replays the run's stream-th request stream against it. The
// benchmark steps the simulator itself, so it can count events.
func runRep(w *workloadDef, runSeed int64, stream int, traced, profiled, serve bool) (*rep, error) {
	seed := streamSeed(runSeed, stream)
	r := &rep{stream: stream, seed: seed, traced: traced, profiled: profiled}
	// Collect the previous repetition's garbage first, so that it is not
	// charged to this set-up. Set-up then runs with the collector paused
	// and ends with one full collection: how often the collector would run
	// inside it depends on the heap the benchmark itself still holds, while
	// one collection of what set-up leaves is the same work on every
	// repetition. It also starts every serve phase from a collected heap.
	runtime.GC()
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	wallStart := time.Now()
	s := site.New(site.Options{Small: true, Seed: seed})
	spec := w.Spec(seed)
	gen := time.Now()
	reqs, err := workload.Generate(spec)
	if err != nil {
		return nil, err
	}
	r.generateWall = time.Since(gen)
	r.reqs = reqs

	var events int64
	var failure error
	done := false
	s.Eng.Go("perfbench", func(p *sim.Proc) {
		defer func() { done = true }()
		st, err := deploy(p, s, w)
		if err != nil {
			failure = err
			return
		}
		defer st.stop()
		r.st = st
		runtime.GC()
		debug.SetGCPercent(gcPercent)
		r.setupWall = time.Since(wallStart)
		if !serve {
			return
		}
		if traced {
			for _, gw := range st.gateways() {
				gw.Tracer = &trace.Recorder{Capacity: len(reqs) + 1, SlowN: -1, SampleEvery: 1}
			}
		}
		stopSampler := p.Engine().NewSignal()
		serving := true
		st.runSampler(p.Engine(), func() bool { return serving }, stopSampler)

		target := &bench.HTTPTarget{
			Client:  &vhttp.Client{Net: s.Net, From: site.LoginHops},
			BaseURL: st.baseURL,
			Stream:  w.Stream,
		}
		rec := newRecorder(target, reqs)
		var ms0, ms1 runtime.MemStats
		var prof bytes.Buffer
		runtime.ReadMemStats(&ms0)
		if profiled {
			if err := pprof.StartCPUProfile(&prof); err != nil {
				failure = fmt.Errorf("cpu profile: %w", err)
				return
			}
		}
		ev0 := events
		wall0 := time.Now()
		rec.origin = p.Now()
		r.result = bench.RunWorkload(p, rec, spec.Name, reqs)
		r.serveWall = time.Since(wall0)
		r.events = events - ev0
		if profiled {
			pprof.StopCPUProfile()
			r.profile = prof.Bytes()
		}
		runtime.ReadMemStats(&ms1)
		r.mallocs = ms1.Mallocs - ms0.Mallocs
		r.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
		r.gcs = ms1.NumGC - ms0.NumGC
		serving = false
		st.sample(p.Now())
		stopSampler.Fire()

		r.outs, r.unmatched = rec.all, rec.unmatched
		now := p.Now()
		for _, gw := range st.gateways() {
			for _, rh := range gw.Observe(now).Replicas {
				if age := rh.SnapshotAgeMillis; age > r.observeAge {
					r.observeAge = age
				}
			}
			if traced {
				_, sampled := gw.Tracer.Counts()
				r.tracesSeen += sampled
				r.traces = append(r.traces, gw.Tracer.Recent()...)
			}
		}
	})
	for steps := 0; !done; steps++ {
		if steps >= maxEvents || !s.Eng.Step() {
			return nil, fmt.Errorf("%s: simulation stalled after %d events", w.Name, steps)
		}
		events++
	}
	if failure != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, failure)
	}
	// Let stopped components observe the stop and exit their loops.
	s.Eng.RunFor(time.Hour)
	return r, nil
}
