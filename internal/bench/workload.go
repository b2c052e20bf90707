// Open-loop workload mode: RunWorkload replays an internal/workload request
// stream against a ChatTarget at its recorded arrival times — the load does
// not slow down when the system does, so shed and SLO behavior under
// overload is measured honestly (the closed-loop Run self-throttles by
// construction). Sessions are replayed as real multi-turn conversations:
// turn k+1 carries the full message history of turn k, so session affinity
// and engine prefix caching are exercised with honest token content.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/vllm"
	"repro/internal/workload"
)

// ChatJob is one fully-formed conversation turn for a ChatTarget.
type ChatJob struct {
	Model string
	// Session is the affinity key put on the wire (sched.SessionHeader);
	// every turn of one conversation shares it.
	Session string
	// Class is the priority class (sched.PriorityHeader; "" = default).
	Class string
	// Messages is the full history: prior user/assistant turns plus this
	// turn's fresh user message.
	Messages     []vllm.ChatMessage
	MaxNewTokens int
}

// ChatTarget issues fully-formed chat turns. HTTPTarget implements it; the
// scenario harness substitutes fakes.
type ChatTarget interface {
	DoChat(p *sim.Proc, job ChatJob) (Outcome, error)
}

// DoChat implements ChatTarget: the job's model overrides the target
// default, and session/priority ride the scheduling headers.
func (t *HTTPTarget) DoChat(p *sim.Proc, job ChatJob) (Outcome, error) {
	hdr := map[string]string{}
	if job.Session != "" {
		hdr[sched.SessionHeader] = job.Session
	}
	if job.Class != "" {
		hdr[sched.PriorityHeader] = job.Class
	}
	saved := t.Model
	if job.Model != "" {
		t.Model = job.Model
	}
	out, err := t.exchange(p, job.Messages, job.MaxNewTokens, hdr)
	t.Model = saved
	return out, err
}

// CohortResult is one cohort's latency/outcome breakdown.
type CohortResult struct {
	Cohort    string
	Completed int
	Failed    int // non-shed errors
	Shed      int // 503 admission rejections

	InputTokens  int64
	OutputTokens int64

	TTFT metrics.Dist // ms
	ITL  metrics.Dist // ms (streaming targets only)
	E2E  metrics.Dist // ms
}

// WorkloadResult is the open-loop analogue of Result: whole-run totals plus
// the per-cohort breakdown.
type WorkloadResult struct {
	Name      string
	Duration  time.Duration
	Requests  int
	Completed int
	Failed    int
	Shed      int

	OutputTokens     int64
	OutputThroughput float64 // output tok/s

	Cohorts []*CohortResult // sorted by cohort name
}

// Cohort returns the named breakdown (nil if the cohort sent nothing).
func (r *WorkloadResult) Cohort(name string) *CohortResult {
	for _, c := range r.Cohorts {
		if c.Cohort == name {
			return c
		}
	}
	return nil
}

// String renders a per-cohort summary block.
func (r *WorkloadResult) String() string {
	s := fmt.Sprintf("============ Workload Benchmark Result ============\n")
	s += fmt.Sprintf("Run:                   %s\n", r.Name)
	s += fmt.Sprintf("Duration (s):          %.2f\n", r.Duration.Seconds())
	s += fmt.Sprintf("Requests:              %d (completed %d, shed %d, failed %d)\n",
		r.Requests, r.Completed, r.Shed, r.Failed)
	s += fmt.Sprintf("Output tok/s:          %.2f\n", r.OutputThroughput)
	for _, c := range r.Cohorts {
		s += fmt.Sprintf("  cohort %-12s  ok %-6d shed %-5d fail %-4d mean TTFT %.1fms  p99 TTFT %.1fms  mean E2E %.1fms\n",
			c.Cohort, c.Completed, c.Shed, c.Failed, c.TTFT.Mean(), c.TTFT.P99(), c.E2E.Mean())
	}
	s += "===================================================\n"
	return s
}

// sessionState threads one conversation through its turns: the accumulated
// message history and the completion signal of the latest issued turn.
type sessionState struct {
	history []vllm.ChatMessage
	done    *sim.Signal
}

// RunWorkload replays reqs (a workload.Generate stream or a replayed trace)
// open-loop: each request is dispatched at its recorded arrival offset on
// its own process. Turn k+1 of a session additionally waits for turn k's
// completion — its history includes that reply — which is the generator's
// documented earliest-start contract, not closed-loop throttling.
func RunWorkload(p *sim.Proc, target ChatTarget, name string, reqs []workload.Request) *WorkloadResult {
	eng := p.Engine()
	res := &WorkloadResult{Name: name, Requests: len(reqs)}
	byCohort := make(map[string]*CohortResult)
	// Session machinery (history retention, completion chaining) only pays
	// for itself on multi-turn sessions; at 10^5+ single-turn sessions the
	// retained histories would dominate memory for no behavioral difference.
	lastTurn := make(map[string]int)
	for i := range reqs {
		if reqs[i].Turn > 0 {
			if k := reqs[i].SessionKey(); reqs[i].Turn > lastTurn[k] {
				lastTurn[k] = reqs[i].Turn
			}
		}
	}
	sessions := make(map[string]*sessionState, len(lastTurn))
	group := eng.NewGroup()
	start := p.Now()
	var end time.Time

	for i := range reqs {
		r := reqs[i]
		if d := r.At() - p.Now().Sub(start); d > 0 {
			p.Sleep(d)
		}
		cr := byCohort[r.Cohort]
		if cr == nil {
			cr = &CohortResult{Cohort: r.Cohort}
			byCohort[r.Cohort] = cr
		}
		key := r.SessionKey()
		final := r.Turn >= lastTurn[key]
		var ss *sessionState
		var prev, mine *sim.Signal
		if lastTurn[key] > 0 {
			ss = sessions[key]
			if ss == nil {
				ss = &sessionState{}
				sessions[key] = ss
			}
			prev = ss.done
			mine = eng.NewSignal()
			ss.done = mine
		}
		group.Add(1)
		eng.Go(fmt.Sprintf("wl-%s-%d", r.Cohort, i), func(rp *sim.Proc) {
			defer group.Finish()
			if mine != nil {
				defer mine.Fire()
			}
			if prev != nil {
				rp.Wait(prev)
			}
			user := vllm.ChatMessage{Role: "user", Content: turnText(r)}
			var history []vllm.ChatMessage
			if ss != nil {
				history = ss.history
			}
			msgs := make([]vllm.ChatMessage, 0, len(history)+1)
			msgs = append(msgs, history...)
			msgs = append(msgs, user)
			reqStart := rp.Now()
			out, err := target.DoChat(rp, ChatJob{
				Model: r.Model, Session: key, Class: r.Class,
				Messages: msgs, MaxNewTokens: r.OutputTokens,
			})
			end = rp.Now()
			if ss != nil && final {
				delete(sessions, key) // free the chain once the last turn lands
			}
			if err != nil {
				if Shed(err) {
					cr.Shed++
					res.Shed++
				} else {
					cr.Failed++
					res.Failed++
				}
				return
			}
			cr.Completed++
			res.Completed++
			cr.InputTokens += int64(r.PromptTokens)
			gen := out.Generated
			if gen == 0 {
				gen = r.OutputTokens
			}
			cr.OutputTokens += int64(gen)
			res.OutputTokens += int64(gen)
			if out.TTFT > 0 {
				cr.TTFT.AddDuration(out.TTFT)
			}
			for _, gap := range out.ITL {
				cr.ITL.AddDuration(gap)
			}
			cr.E2E.AddDuration(rp.Now().Sub(reqStart))
			// The reply joins the session history, so the next turn's
			// prompt shares this turn's exact prefix — what makes session
			// affinity and prefix caching honestly measurable.
			if ss != nil && !final {
				ss.history = append(ss.history, user,
					vllm.ChatMessage{Role: "assistant", Content: vllm.SynthesizeText(gen)})
			}
		})
	}
	group.WaitAll(p)
	if end.IsZero() {
		end = p.Now()
	}
	res.Duration = end.Sub(start)
	if secs := res.Duration.Seconds(); secs > 0 {
		res.OutputThroughput = float64(res.OutputTokens) / secs
	}
	for _, cr := range byCohort {
		res.Cohorts = append(res.Cohorts, cr)
	}
	sort.Slice(res.Cohorts, func(i, j int) bool { return res.Cohorts[i].Cohort < res.Cohorts[j].Cohort })
	return res
}

// turnText synthesizes a turn's fresh user message at its recorded token
// length, tagged unique per (cohort, session, turn) — sessions must share
// history with themselves only, never with a same-length neighbor.
func turnText(r workload.Request) string {
	var buf [64]byte
	tag := append(append(buf[:0], r.Cohort...), " s"...)
	tag = append(strconv.AppendInt(tag, int64(r.Session), 10), " t"...)
	tag = append(strconv.AppendInt(tag, int64(r.Turn), 10), ' ')
	return vllm.SynthesizeTagged(string(tag), r.NewTokens)
}

// WorkloadCohortPoint is one cohort row in the workload artifact.
type WorkloadCohortPoint struct {
	Cohort    string `json:"cohort"`
	Completed int    `json:"completed"`
	Failed    int    `json:"failed"`
	Shed      int    `json:"shed"`

	TTFTMeanMs float64 `json:"ttft_mean_ms"`
	TTFTP99Ms  float64 `json:"ttft_p99_ms"`
	ITLMeanMs  float64 `json:"itl_mean_ms,omitempty"`
	E2EMeanMs  float64 `json:"e2e_mean_ms"`
	E2EP99Ms   float64 `json:"e2e_p99_ms"`
}

// WorkloadArtifact is the machine-readable open-loop record
// (BENCH_workload.json) CI archives per commit.
type WorkloadArtifact struct {
	Label     string                `json:"label"`
	Spec      workload.Spec         `json:"spec"`
	Stats     workload.Stats        `json:"stream"`
	DurationS float64               `json:"duration_s"`
	Requests  int                   `json:"requests"`
	Completed int                   `json:"completed"`
	Failed    int                   `json:"failed"`
	Shed      int                   `json:"shed"`
	OutputTPS float64               `json:"output_throughput_tps"`
	Cohorts   []WorkloadCohortPoint `json:"cohorts"`
}

// NewWorkloadArtifact flattens an open-loop run for the JSON artifact.
func NewWorkloadArtifact(label string, spec workload.Spec, reqs []workload.Request, res *WorkloadResult) *WorkloadArtifact {
	a := &WorkloadArtifact{
		Label: label, Spec: spec, Stats: workload.Summarize(reqs),
		DurationS: res.Duration.Seconds(),
		Requests:  res.Requests, Completed: res.Completed,
		Failed: res.Failed, Shed: res.Shed,
		OutputTPS: res.OutputThroughput,
	}
	for _, c := range res.Cohorts {
		a.Cohorts = append(a.Cohorts, WorkloadCohortPoint{
			Cohort: c.Cohort, Completed: c.Completed, Failed: c.Failed, Shed: c.Shed,
			TTFTMeanMs: c.TTFT.Mean(), TTFTP99Ms: c.TTFT.P99(),
			ITLMeanMs: c.ITL.Mean(),
			E2EMeanMs: c.E2E.Mean(), E2EP99Ms: c.E2E.P99(),
		})
	}
	return a
}

// WriteWorkloadArtifact renders the artifact as indented JSON at path.
func WriteWorkloadArtifact(path string, a *WorkloadArtifact) error {
	body, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encode workload artifact: %w", err)
	}
	return os.WriteFile(path, append(body, '\n'), 0o644)
}

// ResolveWorkload turns the -workload/-trace-file flag pair into a request
// stream. An existing trace file wins and replays exactly as recorded.
// Otherwise arg names a built-in preset or a spec JSON path, every preset
// cohort targets model, and the generated stream is recorded to traceFile
// (when given) so the next run replays it bit-for-bit.
func ResolveWorkload(arg, model, traceFile string) (workload.Spec, []workload.Request, string, error) {
	if traceFile != "" {
		if f, err := os.Open(traceFile); err == nil {
			defer f.Close()
			spec, reqs, rerr := workload.ReadTrace(f)
			if rerr != nil {
				return workload.Spec{}, nil, "", fmt.Errorf("replay %s: %w", traceFile, rerr)
			}
			return spec, reqs, fmt.Sprintf("replayed %d requests from %s", len(reqs), traceFile), nil
		}
	}
	if arg == "" {
		return workload.Spec{}, nil, "", fmt.Errorf("no workload: pass a preset name, a spec JSON path, or an existing -trace-file")
	}
	var spec workload.Spec
	if data, err := os.ReadFile(arg); err == nil {
		if spec, err = workload.ParseSpec(data); err != nil {
			return workload.Spec{}, nil, "", err
		}
	} else {
		var perr error
		if spec, perr = workload.Preset(arg, model); perr != nil {
			return workload.Spec{}, nil, "", perr
		}
	}
	reqs, err := workload.Generate(spec)
	if err != nil {
		return workload.Spec{}, nil, "", err
	}
	src := fmt.Sprintf("generated %d requests from %q", len(reqs), arg)
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return workload.Spec{}, nil, "", err
		}
		if err := workload.WriteTrace(f, spec, reqs); err != nil {
			f.Close()
			return workload.Spec{}, nil, "", err
		}
		if err := f.Close(); err != nil {
			return workload.Spec{}, nil, "", err
		}
		src += ", recorded to " + traceFile
	}
	return spec, reqs, src, nil
}
