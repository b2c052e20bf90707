package main

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/ingress"
	"repro/internal/sim"
	"repro/internal/site"
	"repro/internal/vllm"
)

// stack is one freshly deployed serving stack, seen from outside: its
// endpoint, its replica sets and what the sampler learned while it ran.
type stack struct {
	baseURL string
	deps    []*core.Deployment
	stop    func()

	deployedAt time.Time
	ready      time.Duration // virtual deploy call → endpoint serves

	// Filled by the sampler.
	nodeSeconds float64 // replica-node occupancy integrated over virtual time
	busySpan    float64 // replica-seconds during the serve phase
	engines     []*vllm.Engine
	seenEngine  map[*vllm.Engine]bool
	backends    map[string]bool
	raises      []time.Time // autoscale target raises not yet healthy
	lastHealthy int
	coldStarts  []coldStart
}

type coldStart struct {
	raised, healthy time.Time
}

// deploy stages the workload's models and deploys its stack on s,
// blocking until the endpoint serves.
func deploy(p *sim.Proc, s *site.Site, w *workloadDef) (*stack, error) {
	d := core.NewDeployer(s)
	fs := s.HopsLustre
	if w.Platform.Name == core.PlatformEldorado.Name {
		fs = s.EldoradoLustre
	}
	seeded := map[string]bool{}
	for _, m := range w.Models {
		if seeded[m.Model.Name] {
			continue
		}
		seeded[m.Model.Name] = true
		if err := core.SeedModel(p, fs, m.Model); err != nil {
			return nil, fmt.Errorf("seed %s: %w", m.Model.Name, err)
		}
	}
	cfgs := make([]core.DeployConfig, len(w.Models))
	for i, m := range w.Models {
		cfgs[i] = core.DeployConfig{
			Model: m.Model, TensorParallel: 1, MaxModelLen: 8192, Offline: true,
			Replicas: m.Replicas, RoutePolicy: m.Policy, Autoscale: m.Autoscale,
			SLOTargetP95: m.SLOTargetP95, TTFTTarget: m.TTFTTarget,
			CPUOffloadBlocks: m.CPUOffloadBlocks, NumGPUBlocksOverride: m.GPUBlocks,
		}
		if m.Served != m.Model.Name {
			cfgs[i].ServedName = m.Served
		}
	}
	st := &stack{deployedAt: p.Now(), seenEngine: map[*vllm.Engine]bool{}, backends: map[string]bool{}, lastHealthy: -1}
	if len(cfgs) == 1 {
		dp, err := d.Deploy(p, core.VLLMPackage(), w.Platform, cfgs[0])
		if err != nil {
			return nil, fmt.Errorf("deploy: %w", err)
		}
		st.baseURL, st.deps, st.stop = dp.BaseURL, []*core.Deployment{dp}, dp.Stop
	} else {
		models := make([]core.FleetModel, len(cfgs))
		for i := range cfgs {
			models[i] = core.FleetModel{Config: cfgs[i]}
		}
		fl, err := d.DeployFleet(p, core.VLLMPackage(), w.Platform, core.FleetConfig{}, models)
		if err != nil {
			return nil, fmt.Errorf("deploy fleet: %w", err)
		}
		st.baseURL, st.stop = fl.BaseURL, fl.Stop
		for _, name := range fl.Models() {
			st.deps = append(st.deps, fl.Deployment(name))
		}
	}
	st.ready = p.Now().Sub(st.deployedAt)
	// Initial replicas launch concurrently on an otherwise idle platform,
	// so every one of their jobs starts at the deploy call.
	for _, dp := range st.deps {
		st.nodeSeconds += float64(dp.OccupiedReplicas()) * st.ready.Seconds()
	}
	st.sample(p.Now())
	return st, nil
}

func (st *stack) gateways() []*ingress.Gateway {
	var out []*ingress.Gateway
	for _, dp := range st.deps {
		if gw := dp.Gateway(); gw != nil {
			out = append(out, gw)
		}
	}
	return out
}

// sampleEvery is the sampler's virtual period: fine enough to time a
// multi-minute cold start to the second, coarse enough to add a negligible
// number of events.
const sampleEvery = time.Second

// runSampler observes the stack from outside once per sampleEvery until
// stop fires: node occupancy, replica launches, engines and cold starts.
func (st *stack) runSampler(eng *sim.Engine, serving func() bool, stop *sim.Signal) {
	eng.Go("perfbench-sampler", func(p *sim.Proc) {
		last := p.Now()
		for !stop.Fired() {
			p.WaitTimeout(stop, sampleEvery)
			now := p.Now()
			dt := now.Sub(last).Seconds()
			last = now
			for _, dp := range st.deps {
				occ := float64(dp.OccupiedReplicas())
				st.nodeSeconds += occ * dt
				if serving() {
					st.busySpan += float64(dp.CurrentReplicas()) * dt
				}
			}
			st.sample(now)
		}
	})
}

// sample records engines and backends seen so far and matches autoscale
// target raises to the replicas that answer them.
func (st *stack) sample(now time.Time) {
	for _, dp := range st.deps {
		for _, r := range dp.Replicas() {
			e := r.Engine()
			if e == nil {
				continue
			}
			if !st.seenEngine[e] {
				st.seenEngine[e] = true
				st.engines = append(st.engines, e)
			}
		}
		gw := dp.Gateway()
		if gw == nil {
			continue
		}
		healthy := 0
		for _, b := range gw.Backends() {
			st.backends[b.Name] = true
			if b.Healthy() && !b.Draining() {
				healthy++
			}
		}
		as := dp.Autoscaler()
		if as == nil {
			continue
		}
		// A raise is one replica the controller asked for beyond those
		// already healthy; it lands when the healthy count next grows.
		target := as.Status().Target
		if st.lastHealthy >= 0 {
			for k := healthy - st.lastHealthy; k > 0 && len(st.raises) > 0; k-- {
				st.coldStarts = append(st.coldStarts, coldStart{raised: st.raises[0], healthy: now})
				st.raises = st.raises[1:]
			}
		}
		st.lastHealthy = healthy
		for target > healthy+len(st.raises) {
			st.raises = append(st.raises, now)
		}
		for len(st.raises) > 0 && target < healthy+len(st.raises) {
			st.raises = st.raises[:len(st.raises)-1]
		}
	}
}
