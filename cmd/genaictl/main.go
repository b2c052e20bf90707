// Command genaictl is the unified container-deployment tool the paper's §4
// proposes: one interface that plans and executes GenAI service deployments
// across HPC (Slurm/Flux with Podman/Apptainer) and Kubernetes platforms,
// resolving runtime, platform, and site differences from package metadata.
//
// Everything runs against the simulated converged site, so every command is
// reproducible on a laptop:
//
//	genaictl packages                         # list deployable packages
//	genaictl platforms                        # list platforms
//	genaictl plan  -platform hops   -model meta-llama/Llama-4-Scout-17B-16E-Instruct -tp 4 -max-model-len 65536
//	genaictl plan  -platform eldorado ...     # same package, Apptainer+ROCm plan
//	genaictl plan  -platform goodall  ...     # same package, Helm values
//	genaictl deploy -platform hops  -model meta-llama/Llama-3.1-8B-Instruct -tp 1 -max-model-len 8192 -query "hello"
//	genaictl deploy -platform hops  -tp 1 -max-model-len 8192 -autoscale -pool-nodes 4 \
//	    -models "chat=meta-llama/Llama-3.1-8B-Instruct:2,code=Qwen/Qwen2.5-Coder-7B-Instruct:1" -query "hello"
//	genaictl fetch -model meta-llama/Llama-3.1-8B-Instruct    # hub → S3 workflow
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/autoscale"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/ingress"
	"repro/internal/llm"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/site"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vhttp"
	"repro/internal/vllm"
	"repro/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	args := os.Args[2:]
	switch cmd {
	case "packages":
		pkg := core.VLLMPackage()
		fmt.Printf("%-8s %s\n", pkg.Name, pkg.Description)
		for arch, image := range pkg.ImageByArch {
			fmt.Printf("         %-6s → %s\n", arch, image)
		}
	case "platforms":
		for _, pf := range []core.Platform{core.PlatformHops, core.PlatformEldorado, core.PlatformGoodall, core.PlatformCEE} {
			fmt.Printf("%-10s kind=%s\n", pf.Name, pf.Kind)
		}
	case "models":
		for _, m := range llm.Catalog() {
			fmt.Printf("%-60s %6.1f GiB (%s)\n", m.Name, float64(m.WeightBytes())/(1<<30), m.Quant)
		}
	case "plan":
		runPlan(args)
	case "deploy":
		runDeploy(args)
	case "trace":
		runTrace(args)
	case "observe":
		runObserve(args)
	case "fetch":
		runFetch(args)
	case "experiments":
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
	default:
		usage()
		os.Exit(2)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `genaictl — converged GenAI service deployment (simulated site)

commands:
  packages      list deployable container packages
  platforms     list target platforms
  models        list known models
  plan          render the deployment artifact for a platform
  deploy        deploy on the simulated site and optionally send a query
  trace         deploy, send one traced request, print its stage waterfall
  observe       deploy, apply brief load, print the /observe fleet snapshot
  fetch         run the model download → object storage workflow
  experiments   list reproducible experiments (see cmd/figures)`)
}

func platformByName(name string) (core.Platform, error) {
	for _, pf := range []core.Platform{core.PlatformHops, core.PlatformEldorado, core.PlatformGoodall, core.PlatformCEE} {
		if pf.Name == name {
			return pf, nil
		}
	}
	return core.Platform{}, fmt.Errorf("unknown platform %q", name)
}

// deployOpts collects the flags shared by plan and deploy.
type deployOpts struct {
	platform, model  *string
	tp, pp, maxLen   *int
	persistent       *bool
	replicas         *int
	policy           *string
	elastic          *bool
	minReps, maxReps *int
	targetQueue      *int
	sloP95           *time.Duration
	ttftTarget       *time.Duration
	priority         *string
	models           *string
	poolNodes        *int
	prefixCache      *bool
}

func deployFlags(fs *flag.FlagSet) *deployOpts {
	o := &deployOpts{}
	o.platform = fs.String("platform", "hops", "target platform (hops, eldorado, goodall, cee)")
	o.model = fs.String("model", llm.Scout.Name, "model name")
	o.tp = fs.Int("tp", 4, "tensor parallel size")
	o.pp = fs.Int("pp", 1, "pipeline parallel size (>1 = multi-node via Ray)")
	o.maxLen = fs.Int("max-model-len", 65536, "context length limit")
	o.persistent = fs.Bool("persistent", false, "Compute-as-Login persistent service (HPC)")
	o.replicas = fs.Int("replicas", 1, "engine instances behind one endpoint (>1 = replica set + gateway)")
	o.policy = fs.String("route-policy", "round-robin", "replica-set routing: round-robin, least-loaded, session (KV-cache affinity on the request's session key), prefix (session affinity plus sketch-based cache-aware placement)")
	o.elastic = fs.Bool("autoscale", false, "elastically resize the replica set from gateway load (HPC)")
	o.minReps = fs.Int("min-replicas", 0, "autoscale floor (0 = scale to zero when idle)")
	o.maxReps = fs.Int("max-replicas", 4, "autoscale ceiling")
	o.targetQueue = fs.Int("target-queue-depth", 0, "autoscale per-replica queue target (0 = default)")
	o.sloP95 = fs.Duration("slo-p95", 0, "p95 latency objective: shed batch-class requests while the gateway's rolling p95 breaches it (0 = off)")
	o.ttftTarget = fs.Duration("ttft-target", 0, "time-to-first-token objective stamped onto requests for the engine's deadline scheduler; batch class gets a relaxed multiple (0 = fall back to -slo-p95)")
	o.priority = fs.String("priority", "", "default priority class for unlabeled requests: interactive (default) or batch")
	o.models = fs.String("models", "", "multi-model fleet spec: alias=hf-name[:weight][:p95=dur][:ttft=dur][:class=name][:policy=name],... (e.g. \"chat=meta-llama/Llama-3.1-8B-Instruct:2:p95=30s,code=Qwen/Qwen2.5-Coder-7B-Instruct:1:class=batch\")")
	o.poolNodes = fs.Int("pool-nodes", 0, "shared node pool arbitrated across the fleet's models (0 = no arbitration)")
	o.prefixCache = fs.Bool("prefix-cache", true, "automatic prefix caching in the engine (vLLM --enable-prefix-caching); multi-turn sessions routed to their replica skip cached prefill")
	return o
}

// validate rejects bad inputs at flag-parse time, before any deployment
// machinery runs. Returns the parsed autoscale policy (nil when disabled).
func (o *deployOpts) validate() (*autoscale.Policy, error) {
	if *o.replicas < 1 {
		return nil, fmt.Errorf("-replicas must be at least 1 (got %d)", *o.replicas)
	}
	if _, err := ingress.ParsePolicy(*o.policy); err != nil {
		return nil, err
	}
	if _, err := sched.ParseClass(*o.priority); err != nil {
		return nil, err
	}
	if *o.sloP95 < 0 {
		return nil, fmt.Errorf("-slo-p95 must be >= 0 (got %s)", *o.sloP95)
	}
	if *o.ttftTarget < 0 {
		return nil, fmt.Errorf("-ttft-target must be >= 0 (got %s)", *o.ttftTarget)
	}
	if !*o.elastic {
		return nil, nil
	}
	pol := &autoscale.Policy{
		MinReplicas:      *o.minReps,
		MaxReplicas:      *o.maxReps,
		TargetQueueDepth: *o.targetQueue,
	}
	if err := pol.Validate(); err != nil {
		return nil, err
	}
	return pol, nil
}

func (o *deployOpts) config(m *llm.ModelSpec, pol *autoscale.Policy) core.DeployConfig {
	return core.DeployConfig{
		Model: m, TensorParallel: *o.tp, PipelineParallel: *o.pp,
		MaxModelLen: *o.maxLen, Offline: true, Persistent: *o.persistent,
		Replicas: *o.replicas, RoutePolicy: *o.policy, Autoscale: pol,
		SLOTargetP95: *o.sloP95, TTFTTarget: *o.ttftTarget,
		PriorityClass:      *o.priority,
		DisablePrefixCache: !*o.prefixCache,
	}
}

func runPlan(args []string) {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	opts := deployFlags(fs)
	fs.Parse(args)
	pol, err := opts.validate()
	fatalIf(err)
	pf, err := platformByName(*opts.platform)
	fatalIf(err)
	m, err := llm.ByName(*opts.model)
	fatalIf(err)
	s := site.New(site.Options{Small: true, Seed: 1})
	d := core.NewDeployer(s)
	plan, err := d.Plan(core.VLLMPackage(), pf, opts.config(m, pol))
	fatalIf(err)
	fmt.Printf("# platform: %s   runtime: %s   image: %s\n", plan.Platform.Name, plan.Runtime, plan.Image)
	fmt.Println(plan.Artifact)
	for _, n := range plan.Notes {
		fmt.Println("# note:", n)
	}
}

func runDeploy(args []string) {
	fs := flag.NewFlagSet("deploy", flag.ExitOnError)
	opts := deployFlags(fs)
	query := fs.String("query", "", "send one chat completion after deploying")
	stream := fs.Bool("stream", false, "stream the -query response over SSE, reporting time to first token")
	wl := fs.String("workload", "", "drive a workload preset or spec file against the deployment (e.g. steady, diurnal-chat)")
	wlTrace := fs.String("trace-file", "", "workload trace JSONL: replay it if the file exists, else record the generated workload to it")
	wlArtifact := fs.String("workload-artifact", "", "write per-cohort workload results to this JSON file (e.g. BENCH_workload.json)")
	fs.Parse(args)
	pol, err := opts.validate()
	fatalIf(err)
	if *opts.models != "" {
		if *wl != "" || *wlTrace != "" {
			fatalIf(fmt.Errorf("-workload/-trace-file drive a single-model deployment (drop -models)"))
		}
		runDeployFleet(opts, pol, *query)
		return
	}
	pf, err := platformByName(*opts.platform)
	fatalIf(err)
	m, err := llm.ByName(*opts.model)
	fatalIf(err)

	s := site.New(site.Options{Small: true, Seed: 1})
	d := core.NewDeployer(s)
	var failure error
	done := false
	s.Eng.Go("genaictl", func(p *sim.Proc) {
		defer func() { done = true }()
		// Seed the model onto the right substrate (the fetch/stage pipeline
		// is exercised by `genaictl fetch` and the test suite).
		switch pf.Kind {
		case "k8s":
			failure = core.SeedModelToS3(p, d, m)
		default:
			fsys := s.HopsLustre
			if pf.Name == "eldorado" {
				fsys = s.EldoradoLustre
			}
			failure = core.SeedModel(p, fsys, m)
		}
		if failure != nil {
			return
		}
		start := p.Now()
		dp, err := d.Deploy(p, core.VLLMPackage(), pf, opts.config(m, pol))
		if err != nil {
			failure = err
			return
		}
		fmt.Printf("deployed %s on %s in %s (simulated)\n", m.Short, pf.Name, p.Now().Sub(start).Round(time.Second))
		fmt.Printf("  endpoint: %s\n", dp.BaseURL)
		if dp.ExternalURL != "" && dp.ExternalURL != dp.BaseURL {
			fmt.Printf("  external: %s\n", dp.ExternalURL)
		}
		if gw := dp.Gateway(); gw != nil {
			fmt.Printf("  replicas: %d (%s routing)\n", len(dp.Replicas()), gw.Policy)
			for _, r := range dp.Replicas() {
				fmt.Printf("    - %s\n", r.BaseURL)
			}
			if pol != nil {
				resolved := pol.WithDefaults()
				fmt.Printf("  autoscale: %d–%d replicas, target queue %d/replica, scale-to-zero after %s idle\n",
					resolved.MinReplicas, resolved.MaxReplicas, resolved.TargetQueueDepth, resolved.ScaleToZeroAfter)
			}
			if *opts.sloP95 > 0 {
				fmt.Printf("  slo: p95 objective %s (batch-class requests shed while breached)\n", *opts.sloP95)
			}
			if *opts.ttftTarget > 0 {
				fmt.Printf("  ttft: %s objective (engines admit by deadline urgency)\n", *opts.ttftTarget)
			}
			if *opts.priority != "" {
				fmt.Printf("  priority: unlabeled requests default to the %s class\n", *opts.priority)
			}
		}
		if *query != "" {
			client := &vhttp.Client{Net: s.Net, From: site.LoginHops}
			body, _ := json.Marshal(vllm.ChatRequest{
				Messages: []vllm.ChatMessage{{Role: "user", Content: *query}}, MaxTokens: 64,
				Stream: *stream,
			})
			t0 := p.Now()
			resp, err := client.Do(p, &vhttp.Request{Method: "POST", URL: dp.BaseURL + "/v1/chat/completions", Body: body})
			if err != nil {
				failure = err
				return
			}
			if resp.Stream != nil {
				// Consume the SSE body chunk by chunk; the first content
				// delta's arrival is the client-observed time to first
				// token, and the terminal chunk's usage is the token count.
				deltas, completion, ttft := 0, 0, time.Duration(0)
				for {
					c, ok := resp.Stream.Next(p)
					if !ok {
						break
					}
					payload, isEvent := vllm.ParseSSE(c.Data)
					if !isEvent || string(payload) == "[DONE]" {
						continue
					}
					d, err := vllm.DecodeChatChunk(payload)
					if err != nil {
						continue
					}
					if len(d.Content) > 0 {
						if deltas == 0 {
							ttft = p.Now().Sub(t0)
						}
						deltas++
					}
					if d.HasUsage {
						completion = d.Usage.CompletionTokens
					}
				}
				if err := resp.Stream.Err(); err != nil {
					failure = fmt.Errorf("stream truncated: %w", err)
					return
				}
				fmt.Printf("  query streamed: first token in %s, %d content deltas, %d completion tokens, done in %s\n",
					ttft.Round(time.Millisecond), deltas, completion, p.Now().Sub(t0).Round(time.Millisecond))
			} else {
				var cr vllm.ChatResponse
				json.Unmarshal(resp.Body, &cr)
				fmt.Printf("  query answered in %s: %d completion tokens\n",
					p.Now().Sub(t0).Round(time.Millisecond), cr.Usage.CompletionTokens)
			}
		}
		if *wl != "" || *wlTrace != "" {
			wlSpec, wlReqs, src, err := bench.ResolveWorkload(*wl, m.Name, *wlTrace)
			if err != nil {
				failure = err
				return
			}
			sum := workload.Summarize(wlReqs)
			fmt.Printf("  workload: %s (%d sessions, %d clients, %s span)\n", src, sum.Sessions, sum.Clients, sum.Span)
			client := &vhttp.Client{Net: s.Net, From: site.LoginHops}
			res := bench.RunWorkload(p, &bench.HTTPTarget{Client: client, BaseURL: dp.BaseURL}, wlSpec.Name, wlReqs)
			fmt.Print(res)
			if *wlArtifact != "" {
				label := fmt.Sprintf("%s %s x%d", pf.Name, m.Short, *opts.replicas)
				if err := bench.WriteWorkloadArtifact(*wlArtifact, bench.NewWorkloadArtifact(label, wlSpec, wlReqs, res)); err != nil {
					failure = err
					return
				}
				fmt.Printf("  wrote %s\n", *wlArtifact)
			}
		}
		dp.Stop()
	})
	drive(s, &done)
	fatalIf(failure)
}

// runDeployFleet deploys a multi-model fleet behind one routing endpoint.
func runDeployFleet(opts *deployOpts, pol *autoscale.Policy, query string) {
	entries, err := core.ParseFleetFlag(*opts.models)
	fatalIf(err)
	pf, err := platformByName(*opts.platform)
	fatalIf(err)
	if pf.Kind == "k8s" {
		fatalIf(fmt.Errorf("-models deploys on HPC platforms (got %s)", pf.Name))
	}

	s := site.New(site.Options{Small: true, Seed: 1})
	d := core.NewDeployer(s)
	var failure error
	done := false
	s.Eng.Go("genaictl", func(p *sim.Proc) {
		defer func() { done = true }()
		models, err := core.SeedFleet(p, d, pf, opts.config(nil, pol), entries)
		if err != nil {
			failure = err
			return
		}
		start := p.Now()
		fleet, err := d.DeployFleet(p, core.VLLMPackage(), pf, core.FleetConfig{PoolNodes: *opts.poolNodes}, models)
		if err != nil {
			failure = err
			return
		}
		defer fleet.Stop()
		fmt.Printf("deployed %d-model fleet on %s in %s (simulated)\n", len(models), pf.Name, p.Now().Sub(start).Round(time.Second))
		fmt.Printf("  endpoint: %s (routes on the request's `model` field)\n", fleet.BaseURL)
		if *opts.poolNodes > 0 {
			fmt.Printf("  pool:     %d nodes shared across the fleet\n", *opts.poolNodes)
		}
		for _, name := range fleet.Models() {
			dp := fleet.Deployment(name)
			fmt.Printf("  model %-40s %d replicas (%s routing)\n", name, dp.CurrentReplicas(), dp.Gateway().Policy)
		}
		if query != "" {
			client := &vhttp.Client{Net: s.Net, From: site.LoginHops}
			for _, name := range fleet.Models() {
				body, _ := json.Marshal(vllm.ChatRequest{
					Model:    name,
					Messages: []vllm.ChatMessage{{Role: "user", Content: query}}, MaxTokens: 64,
				})
				t0 := p.Now()
				resp, err := client.Do(p, &vhttp.Request{Method: "POST", URL: fleet.BaseURL + "/v1/chat/completions", Body: body})
				if err != nil {
					failure = err
					return
				}
				var cr vllm.ChatResponse
				json.Unmarshal(resp.Body, &cr)
				fmt.Printf("  query %-40s answered in %s: %d completion tokens\n",
					name, p.Now().Sub(t0).Round(time.Millisecond), cr.Usage.CompletionTokens)
			}
		}
	})
	drive(s, &done)
	fatalIf(failure)
}

// runTrace deploys a replica set, sends one streamed request tagged with
// an X-Trace-Id, and prints the settled trace's stage waterfall fetched
// back from the gateway's /traces endpoint.
func runTrace(args []string) {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	opts := deployFlags(fs)
	query := fs.String("query", "Trace this request end to end.", "prompt for the traced request")
	id := fs.String("id", "genaictl-trace-1", "trace ID sent as the X-Trace-Id header")
	fs.Parse(args)
	if *opts.replicas < 2 {
		// Tracing lives in the gateway; a single bare engine has no
		// /traces endpoint to fetch the settled trace from.
		*opts.replicas = 2
	}
	pol, err := opts.validate()
	fatalIf(err)
	pf, err := platformByName(*opts.platform)
	fatalIf(err)
	m, err := llm.ByName(*opts.model)
	fatalIf(err)

	s := site.New(site.Options{Small: true, Seed: 1})
	d := core.NewDeployer(s)
	var failure error
	done := false
	s.Eng.Go("genaictl", func(p *sim.Proc) {
		defer func() { done = true }()
		if failure = core.SeedModel(p, s.HopsLustre, m); failure != nil {
			return
		}
		dp, err := d.Deploy(p, core.VLLMPackage(), pf, opts.config(m, pol))
		if err != nil {
			failure = err
			return
		}
		defer dp.Stop()
		client := &vhttp.Client{Net: s.Net, From: site.LoginHops}
		body, _ := json.Marshal(vllm.ChatRequest{
			Messages:  []vllm.ChatMessage{{Role: "user", Content: *query}},
			MaxTokens: 64, Stream: true,
		})
		resp, err := client.Do(p, &vhttp.Request{
			Method: "POST", URL: dp.BaseURL + "/v1/chat/completions", Body: body,
			Header: map[string]string{trace.Header: *id},
		})
		if err != nil {
			failure = err
			return
		}
		if resp.Stream != nil {
			for {
				if _, ok := resp.Stream.Next(p); !ok {
					break
				}
			}
			if err := resp.Stream.Err(); err != nil {
				failure = fmt.Errorf("stream truncated: %w", err)
				return
			}
		}
		tresp, err := client.Get(p, dp.BaseURL+trace.Path+"?id="+*id)
		if err != nil || tresp.Status != 200 {
			failure = fmt.Errorf("fetch trace %s: status=%d err=%v", *id, tresp.Status, err)
			return
		}
		var tr trace.Trace
		if err := json.Unmarshal(tresp.Body, &tr); err != nil {
			failure = err
			return
		}
		fmt.Print(tr.Waterfall())
	})
	drive(s, &done)
	fatalIf(failure)
}

// runObserve deploys a replica set, applies a brief burst of load, and
// pretty-prints the one-stop /observe fleet snapshot.
func runObserve(args []string) {
	fs := flag.NewFlagSet("observe", flag.ExitOnError)
	opts := deployFlags(fs)
	load := fs.Int("load", 8, "requests to send before snapshotting")
	fs.Parse(args)
	if *opts.replicas < 2 {
		*opts.replicas = 2
	}
	pol, err := opts.validate()
	fatalIf(err)
	pf, err := platformByName(*opts.platform)
	fatalIf(err)
	m, err := llm.ByName(*opts.model)
	fatalIf(err)

	s := site.New(site.Options{Small: true, Seed: 1})
	d := core.NewDeployer(s)
	var failure error
	done := false
	s.Eng.Go("genaictl", func(p *sim.Proc) {
		defer func() { done = true }()
		if failure = core.SeedModel(p, s.HopsLustre, m); failure != nil {
			return
		}
		dp, err := d.Deploy(p, core.VLLMPackage(), pf, opts.config(m, pol))
		if err != nil {
			failure = err
			return
		}
		defer dp.Stop()
		client := &vhttp.Client{Net: s.Net, From: site.LoginHops}
		for i := 0; i < *load; i++ {
			body, _ := json.Marshal(vllm.ChatRequest{
				Messages:  []vllm.ChatMessage{{Role: "user", Content: fmt.Sprintf("load %d", i)}},
				MaxTokens: 32,
			})
			if _, err := client.Do(p, &vhttp.Request{
				Method: "POST", URL: dp.BaseURL + "/v1/chat/completions", Body: body,
			}); err != nil {
				failure = err
				return
			}
		}
		// Let the gateway's next probe round land so the snapshot carries
		// fresh per-replica telemetry instead of "never scraped".
		p.Sleep(20 * time.Second)
		resp, err := client.Get(p, dp.BaseURL+telemetry.ObservePath)
		if err != nil || resp.Status != 200 {
			failure = fmt.Errorf("fetch /observe: status=%d err=%v", resp.Status, err)
			return
		}
		f, err := telemetry.DecodeFleet(resp.Body)
		if err != nil {
			failure = err
			return
		}
		printFleet(f)
	})
	drive(s, &done)
	fatalIf(failure)
}

// printFleet renders a FleetSnapshot for the terminal.
func printFleet(f telemetry.FleetSnapshot) {
	fmt.Printf("fleet snapshot @ %s\n", f.CapturedAt.Format(time.RFC3339))
	if f.Router != nil {
		fmt.Printf("router: %d requests, %d unknown\n", f.Router.Requests, f.Router.Unknown)
	}
	for _, mo := range f.Models {
		fmt.Printf("model %s  policy=%s serviceable=%v healthy=%d holding=%d\n",
			mo.Model, mo.Policy, mo.Serviceable, mo.HealthyBackends, mo.Holding)
		c := mo.Counters
		fmt.Printf("  requests=%d retries=%d rejected=%d errors=%d held=%d streams=%d truncated=%d spills=%d\n",
			c.Requests, c.Retries, c.Rejected, c.Errors, c.Held, c.Streams, c.StreamsTruncated, c.SessionSpills)
		if c.SketchRoutes > 0 || c.Warmups > 0 {
			fmt.Printf("  cache-aware sketch-routes=%d warmups=%d\n", c.SketchRoutes, c.Warmups)
		}
		if len(mo.LatencyMillis) > 0 {
			fmt.Printf("  latency p50=%.1fms p95=%.1fms p99=%.1fms\n",
				mo.LatencyMillis["p50"], mo.LatencyMillis["p95"], mo.LatencyMillis["p99"])
		}
		if mo.SLO != nil {
			fmt.Printf("  slo target=%.0fms p95=%.1fms engaged=%v sheds=%d\n",
				mo.SLO.TargetMillis, mo.SLO.P95Millis, mo.SLO.Engaged, mo.SLO.Sheds)
		}
		if mo.Traces != nil {
			fmt.Printf("  traces %d/%d sampled", mo.Traces.Sampled, mo.Traces.Total)
			if mo.Traces.SlowestID != "" {
				fmt.Printf(", slowest %s (%.1fms)", mo.Traces.SlowestID, mo.Traces.SlowestMillis)
			}
			fmt.Println()
		}
		for _, r := range mo.Replicas {
			age := "never"
			if r.SnapshotAgeMillis >= 0 {
				age = fmt.Sprintf("%.0fms", r.SnapshotAgeMillis)
			}
			fmt.Printf("  replica %-12s healthy=%v inflight=%d requests=%d failures=%d snapshot-age=%s",
				r.Name, r.Healthy, r.Inflight, r.Requests, r.Failures, age)
			if s := r.Snapshot; s.WindowPrefixHits+s.WindowPrefixMisses > 0 || s.KVHostBlocksTotal > 0 {
				fmt.Printf(" window-hit-rate=%.2f host-kv=%d/%d promotions=%d demotions=%d",
					s.WindowPrefixHitRate(), s.KVHostBlocksUsed, s.KVHostBlocksTotal,
					s.TierPromotions, s.TierDemotions)
			}
			fmt.Println()
		}
	}
}

func runFetch(args []string) {
	fs := flag.NewFlagSet("fetch", flag.ExitOnError)
	model := fs.String("model", llm.Llama318B.Name, "model to download")
	token := fs.String("token", "hf_token", "hub access token")
	fs.Parse(args)
	m, err := llm.ByName(*model)
	fatalIf(err)
	s := site.New(site.Options{Small: true, Seed: 1})
	d := core.NewDeployer(s)
	var failure error
	done := false
	s.Eng.Go("genaictl", func(p *sim.Proc) {
		defer func() { done = true }()
		start := p.Now()
		if failure = d.FetchModel(p, m, *token); failure != nil {
			return
		}
		fmt.Printf("fetched %s: %.1f GiB cloned on %s, synced to s3://%s/%s in %s (simulated)\n",
			m.Short, float64(m.RepoBytes())/(1<<30), site.BuildHost, site.ModelBucket, m.Name,
			p.Now().Sub(start).Round(time.Second))
	})
	drive(s, &done)
	fatalIf(failure)
}

// drive advances the simulation until the command's process completes.
func drive(s *site.Site, done *bool) {
	for i := 0; i < 100000 && !*done; i++ {
		s.Eng.RunFor(10 * time.Minute)
	}
	if !*done {
		fatalIf(fmt.Errorf("simulation did not converge"))
	}
}

func fatalIf(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "genaictl:", err)
		os.Exit(1)
	}
}
