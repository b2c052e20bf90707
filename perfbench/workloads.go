package main

import (
	"fmt"
	"time"

	"repro/internal/autoscale"
	"repro/internal/core"
	"repro/internal/llm"
	"repro/internal/workload"
)

// Latency limits a request must meet to count toward slo_attainment,
// calibrated on fleet-ladder. The first guess, 250 ms interactive / 1 s
// batch, never binds there: even the top step's TTFT p99 stays near 165 ms,
// so only shedding moved attainment. At 100 ms / 400 ms (the same 1:4
// ratio) the bottom steps meet the limits with margin and the upper steps
// miss them by latency as well as by shedding, so the limits bite inside
// the ladder. The ITL limit applies to streamed requests only.
const (
	interactiveTTFT = 100 * time.Millisecond
	batchTTFT       = 400 * time.Millisecond
	itlLimit        = 50 * time.Millisecond
	// attainmentTarget is the share of a window's sent requests that must
	// meet the limits for the window to count as served.
	attainmentTarget = 0.95
	// backlogTolerance is the largest growth in requests awaiting their
	// first token across a window, as a share of the window's arrivals
	// (at least one request), that still counts as no backlog growth.
	backlogTolerance = 0.05
	// windows is the number of equal slices every workload's arrival
	// schedule is cut into for the per-step metrics; on fleet-ladder and
	// elastic-burst each slice is one rate step.
	windows = 8
)

// modelDef is one served model of a workload's stack.
type modelDef struct {
	Served   string
	Model    *llm.ModelSpec
	Replicas int
	Policy   string
	// CPUOffloadBlocks and GPUBlocks size the KV tiers (0 = engine default).
	CPUOffloadBlocks int
	GPUBlocks        int
	SLOTargetP95     time.Duration
	TTFTTarget       time.Duration
	Autoscale        *autoscale.Policy
}

// workloadDef is one benchmark workload as data: the stack it deploys, the
// traffic it sends and the mechanism it must be seen to exercise.
type workloadDef struct {
	Name string
	Why  string
	// Platform is where the stack is deployed.
	Platform core.Platform
	// Models: one entry deploys a replica set behind its gateway; more
	// deploy a fleet behind the model router.
	Models []modelDef
	// Stream requests SSE delivery (client-timed TTFT and ITL).
	Stream bool
	// Deterministic records whether same-seed runs give identical outcome
	// digests today; a deterministic workload whose digests diverge fails
	// the correctness gate.
	Deterministic bool
	// Spec builds the request stream for a seed.
	Spec func(seed int64) workload.Spec
}

var workloads = []workloadDef{
	{
		Name: "chat-prefix",
		Why: "streamed multi-turn chat on 2 Slurm/Podman replicas with prefix routing and a host KV tier; " +
			"live history exceeds GPU KV, so sketch routing, spill, warm-up and tier promote/demote all run",
		Platform: core.PlatformHops,
		Models: []modelDef{{
			// 2048 GPU blocks per replica hold well under half the live history, so
			// blocks demote to the host tier and promote back.
			Served: llm.Llama318B.Name, Model: llm.Llama318B, Replicas: 2, Policy: "prefix",
			CPUOffloadBlocks: 8192, GPUBlocks: 2048,
		}},
		Stream: true,
		// Prefix routing publishes at most 128 chain heads per replica from
		// a Go map, so placement varies from run to run once a replica
		// holds more (PrefixIndex.AppendSketch).
		Deterministic: false,
		Spec: func(seed int64) workload.Spec {
			return workload.Spec{
				Name: "chat-prefix", Seed: seed,
				Cohorts: []workload.Cohort{{
					Name: "chat", Model: llm.Llama318B.Name, Class: "interactive",
					Clients: 400, Turns: 8, ThinkTime: 15 * time.Second,
					Prompt: workload.LengthDist{Mu: 4.5, Sigma: 0.5},
					Output: workload.LengthDist{Mu: 4.0, Sigma: 0.4},
				}},
				Arrivals: workload.Arrivals{Periods: []workload.RatePeriod{
					{Dur: 10 * time.Minute, StartsPerSec: 2},
				}},
			}
		},
	},
	{
		Name: "fleet-ladder",
		Why: "two models behind the router with buffered unshared prompts on a stepped open-loop rate ladder " +
			"that crosses fleet capacity; loads routing, admission, shedding and the deadline scheduler, not the prefix cache",
		Platform: core.PlatformHops,
		Models: []modelDef{
			{Served: "chat", Model: llm.Llama318B, Replicas: 2, Policy: "least-loaded",
				SLOTargetP95: 15 * time.Second, TTFTTarget: interactiveTTFT},
			{Served: "code", Model: llm.Qwen25Coder7B, Replicas: 2, Policy: "least-loaded",
				SLOTargetP95: 15 * time.Second, TTFTTarget: interactiveTTFT},
		},
		Deterministic: true,
		Spec: func(seed int64) workload.Spec {
			var periods []workload.RatePeriod
			for i := 0; i < windows; i++ {
				periods = append(periods, workload.RatePeriod{Dur: 60 * time.Second, StartsPerSec: ladderRate(i)})
			}
			single := func(name, model, class string, w float64) workload.Cohort {
				return workload.Cohort{
					Name: name, Model: model, Class: class, Weight: w, Clients: 2000,
					Prompt: workload.LengthDist{Mu: 6.0, Sigma: 0.5},
					Output: workload.LengthDist{Mu: 5.3, Sigma: 0.4},
				}
			}
			return workload.Spec{
				Name: "fleet-ladder", Seed: seed,
				Cohorts: []workload.Cohort{
					single("chat-i", "chat", "interactive", 3),
					single("chat-b", "chat", "batch", 1),
					single("code-i", "code", "interactive", 2),
					single("code-b", "code", "batch", 1),
				},
				Arrivals: workload.Arrivals{Periods: periods},
			}
		},
	},
	{
		Name: "elastic-burst",
		Why: "buffered chat and api traffic on Flux/Apptainer autoscaled from one replica; a diurnal peak " +
			"overloads the floor before cold-started replicas land, loading the autoscaler, mid-run launches and drain",
		Platform: core.PlatformEldorado,
		Models: []modelDef{{
			Served: llm.Llama318B.Name, Model: llm.Llama318B, Replicas: 1, Policy: "least-loaded",
			// The scale-up threshold sits above the quiet steps' load (about
			// 28 sequences on the floor), so nothing scales before the peak;
			// the low target depth then asks for the ceiling in one decision,
			// and the whole peak waits on a single cold start.
			Autoscale: &autoscale.Policy{
				MinReplicas: 1, MaxReplicas: 4, TargetQueueDepth: 16, ScaleUpThreshold: 48,
				Interval: 15 * time.Second, ScaleUpCooldown: 30 * time.Second,
				ScaleDownCooldown: 3 * time.Minute,
			},
		}},
		Deterministic: true,
		Spec: func(seed int64) workload.Spec {
			return workload.Spec{
				Name: "elastic-burst", Seed: seed,
				Cohorts: []workload.Cohort{
					{Name: "chat", Model: llm.Llama318B.Name, Class: "interactive", Weight: 2,
						Clients: 800,
						Prompt:  workload.LengthDist{Mu: 5.0, Sigma: 0.5},
						Output:  workload.LengthDist{Mu: 5.3, Sigma: 0.4}},
					{Name: "api", Model: llm.Llama318B.Name, Class: "interactive", Weight: 1,
						Clients: 400,
						Prompt:  workload.LengthDist{Mu: 6.0, Sigma: 0.5},
						Output:  workload.LengthDist{Mu: 5.0, Sigma: 0.4}},
				},
				// Eight equal periods, so that each window is one phase of
				// the day: two quiet, four peak, two quiet.
				Arrivals: workload.Arrivals{Periods: []workload.RatePeriod{
					{Dur: 75 * time.Second, StartsPerSec: 4.5},
					{Dur: 75 * time.Second, StartsPerSec: 4.5},
					{Dur: 75 * time.Second, StartsPerSec: 45},
					{Dur: 75 * time.Second, StartsPerSec: 45},
					{Dur: 75 * time.Second, StartsPerSec: 45},
					{Dur: 75 * time.Second, StartsPerSec: 45},
					{Dur: 75 * time.Second, StartsPerSec: 4.5},
					{Dur: 75 * time.Second, StartsPerSec: 4.5},
				}},
			}
		},
	},
}

// ladderRate is fleet-ladder's session-start rate at step i: geometric from
// well under fleet capacity to well over it.
func ladderRate(i int) float64 {
	r := 16.0
	for ; i > 0; i-- {
		r *= 1.155
	}
	return r
}

func lookupWorkload(name string) (*workloadDef, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
