// Package bench reimplements vLLM's benchmark_serving.py methodology (§3.4):
// a stream of dataset-sampled requests held at a maximum request concurrency,
// measuring output-token throughput and latency distributions. A sweep over
// concurrencies 1..1024 in powers of two regenerates the paper's figures.
package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/sharegpt"
	"repro/internal/sim"
	"repro/internal/vhttp"
	"repro/internal/vllm"
)

// Outcome describes one completed request.
type Outcome struct {
	Generated int           // output tokens produced
	TTFT      time.Duration // time to first token (0 if unknown)
	// ITL holds the inter-token gaps observed by a streaming client (nil
	// for buffered targets, which see the whole body at once).
	ITL []time.Duration
}

// Target abstracts where requests go: directly into an engine, or over the
// (virtual) network through the OpenAI API like the real benchmark container.
type Target interface {
	// Do issues one request and blocks until completion.
	Do(p *sim.Proc, promptTokens, maxNewTokens int) (Outcome, error)
}

// EngineTarget drives a vllm.Engine in-process.
type EngineTarget struct{ Engine *vllm.Engine }

// Do implements Target.
func (t *EngineTarget) Do(p *sim.Proc, prompt, maxNew int) (Outcome, error) {
	r := t.Engine.Submit(prompt, maxNew)
	p.Wait(r.Done())
	return Outcome{Generated: r.Generated, TTFT: r.TTFT()}, r.Err
}

// HTTPTarget sends OpenAI chat completions to a base URL, as the
// containerized benchmark does (Fig 8).
type HTTPTarget struct {
	Client  *vhttp.Client
	BaseURL string // e.g. "http://hops15:8000"
	Model   string
	APIKey  string
	// Stream requests SSE delivery (`stream: true`) and measures TTFT at
	// the first delta's arrival — the client-observed number, not the
	// server-reported header — plus per-gap inter-token latencies.
	Stream bool

	seq int // per-target request counter making every prompt unique
}

// StatusError is a non-200 HTTP outcome, keeping the status code typed so
// callers can tell load shedding (503 from admission control) from other
// failures.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("http %d", e.Code)
	}
	return fmt.Sprintf("http %d: %s", e.Code, e.Msg)
}

// Shed reports whether err is an admission-control rejection.
func Shed(err error) bool {
	var se *StatusError
	return errors.As(err, &se) && se.Code == 503
}

// Do implements Target.
func (t *HTTPTarget) Do(p *sim.Proc, prompt, maxNew int) (Outcome, error) {
	content := vllm.SynthesizeText(max(prompt-4, 1))
	// Tag each prompt unique: throughput benchmarks measure prefill+decode
	// compute, and two same-length synthesized prompts would otherwise be
	// identical and served from the engine's prefix cache — real harnesses
	// randomize prompts for exactly this reason. Entries near the 4-token
	// clamp synthesize less content than the descriptive tag; those fall
	// back to a compact base-36 tag, and when even that does not fit the
	// tag *is* the content (padding the prompt by a token at most) — no two
	// benchmark prompts are ever byte-identical.
	t.seq++
	tag := fmt.Sprintf("benchmark request %d ", t.seq)
	if len(tag) > len(content) {
		tag = strconv.FormatInt(int64(t.seq), 36) + " "
	}
	if len(tag) < len(content) {
		content = tag + content[len(tag):]
	} else {
		content = tag
	}
	return t.exchange(p, []vllm.ChatMessage{{Role: "user", Content: content}}, maxNew, nil)
}

// exchange performs one chat completion with the given message list,
// shared by the closed-loop Do and the open-loop workload DoChat.
func (t *HTTPTarget) exchange(p *sim.Proc, msgs []vllm.ChatMessage, maxNew int, extraHeader map[string]string) (Outcome, error) {
	body, _ := json.Marshal(vllm.ChatRequest{
		Model:     t.Model,
		Messages:  msgs,
		MaxTokens: maxNew,
		Stream:    t.Stream,
	})
	req := &vhttp.Request{
		Method: "POST",
		URL:    strings.TrimSuffix(t.BaseURL, "/") + "/v1/chat/completions",
		Header: map[string]string{"Content-Type": "application/json"},
		Body:   body,
	}
	if t.APIKey != "" {
		req.Header["Authorization"] = "Bearer " + t.APIKey
	}
	for k, v := range extraHeader {
		req.Header[k] = v
	}
	start := p.Now()
	resp, err := t.Client.Do(p, req)
	if err != nil {
		return Outcome{}, err
	}
	if resp.Status != 200 {
		se := &StatusError{Code: resp.Status}
		var er vllm.ErrorResponse
		if json.Unmarshal(resp.Body, &er) == nil && er.Error.Message != "" {
			se.Msg = er.Error.Message
		}
		return Outcome{}, se
	}
	if resp.Stream != nil {
		return t.consumeStream(p, resp.Stream, start)
	}
	if t.Stream {
		return Outcome{}, fmt.Errorf("requested stream=true but got a buffered response")
	}
	var cr vllm.ChatResponse
	if err := json.Unmarshal(resp.Body, &cr); err != nil {
		return Outcome{}, fmt.Errorf("bad response: %w", err)
	}
	var ttft time.Duration
	if v := resp.Header["X-Request-Ttft-Micros"]; v != "" {
		// A malformed header records TTFT as unknown (0); Sscanf would
		// otherwise leave whatever garbage a partial scan produced.
		if us, perr := strconv.ParseInt(strings.TrimSpace(v), 10, 64); perr == nil && us > 0 {
			ttft = time.Duration(us) * time.Microsecond
		}
	}
	return Outcome{Generated: cr.Usage.CompletionTokens, TTFT: ttft}, nil
}

// consumeStream pulls SSE chunks as the engine produces them, timing the
// first content delta (TTFT as a client would see it) and every gap
// between deltas. A truncated stream — the backend died after the first
// byte, which the gateway deliberately does not retry — fails the request.
func (t *HTTPTarget) consumeStream(p *sim.Proc, stream vhttp.ChunkReader, start time.Time) (Outcome, error) {
	var out Outcome
	tokens := 0
	last := start
	for {
		c, ok := stream.Next(p)
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
		if d.HasUsage {
			out.Generated = d.Usage.CompletionTokens
		}
		if len(d.Content) > 0 {
			now := p.Now()
			if tokens == 0 {
				out.TTFT = now.Sub(start)
			} else {
				out.ITL = append(out.ITL, now.Sub(last))
			}
			last = now
			tokens++
		}
	}
	if err := stream.Err(); err != nil {
		return Outcome{}, fmt.Errorf("stream truncated after %d tokens: %w", tokens, err)
	}
	if out.Generated == 0 {
		out.Generated = tokens
	}
	return out, nil
}

// Config parameterizes one benchmark run.
type Config struct {
	Name           string
	Dataset        *sharegpt.Dataset
	NumPrompts     int // default 1000
	MaxConcurrency int // the swept variable
	Seed           int64
	// ContinueOnError keeps the run going when individual requests fail,
	// counting them instead of aborting. Used when benchmarking through the
	// replica gateway, where a replica crash surfaces as sporadic request
	// errors the gateway absorbs rather than a dead endpoint.
	ContinueOnError bool
}

// Result mirrors benchmark_serving.py's summary block.
type Result struct {
	Name        string
	Concurrency int

	Duration  time.Duration
	Completed int
	Failed    int

	InputTokens  int64
	OutputTokens int64

	RequestThroughput float64 // req/s
	OutputThroughput  float64 // output tok/s
	TotalThroughput   float64 // (in+out) tok/s

	TTFT metrics.Dist // ms
	TPOT metrics.Dist // ms (per output token after the first)
	ITL  metrics.Dist // ms (client-observed inter-token gaps; streaming only)
	E2E  metrics.Dist // ms

	Crashed  bool
	CrashMsg string
}

// String renders the benchmark_serving-style summary block.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "============ Serving Benchmark Result ============\n")
	fmt.Fprintf(&b, "Run:                              %s\n", r.Name)
	fmt.Fprintf(&b, "Max request concurrency:          %d\n", r.Concurrency)
	fmt.Fprintf(&b, "Successful requests:              %d\n", r.Completed)
	fmt.Fprintf(&b, "Failed requests:                  %d\n", r.Failed)
	fmt.Fprintf(&b, "Benchmark duration (s):           %.2f\n", r.Duration.Seconds())
	fmt.Fprintf(&b, "Total input tokens:               %d\n", r.InputTokens)
	fmt.Fprintf(&b, "Total generated tokens:           %d\n", r.OutputTokens)
	fmt.Fprintf(&b, "Request throughput (req/s):       %.2f\n", r.RequestThroughput)
	fmt.Fprintf(&b, "Output token throughput (tok/s):  %.2f\n", r.OutputThroughput)
	fmt.Fprintf(&b, "Total token throughput (tok/s):   %.2f\n", r.TotalThroughput)
	fmt.Fprintf(&b, "Mean TTFT (ms):                   %.2f\n", r.TTFT.Mean())
	fmt.Fprintf(&b, "Median TTFT (ms):                 %.2f\n", r.TTFT.Median())
	fmt.Fprintf(&b, "P99 TTFT (ms):                    %.2f\n", r.TTFT.P99())
	fmt.Fprintf(&b, "Mean TPOT (ms):                   %.2f\n", r.TPOT.Mean())
	if r.ITL.N() > 0 {
		fmt.Fprintf(&b, "Mean ITL (ms):                    %.2f\n", r.ITL.Mean())
		fmt.Fprintf(&b, "P99 ITL (ms):                     %.2f\n", r.ITL.P99())
	}
	fmt.Fprintf(&b, "Mean E2EL (ms):                   %.2f\n", r.E2E.Mean())
	if r.Crashed {
		fmt.Fprintf(&b, "!! RUN ABORTED: %s\n", r.CrashMsg)
	}
	fmt.Fprintf(&b, "==================================================\n")
	return b.String()
}

// Run executes one benchmark: NumPrompts requests drawn from the dataset,
// issued by MaxConcurrency closed-loop workers. It must be called from a
// process. On target failure (server crash) the run aborts and the partial
// result is marked Crashed, mirroring the paper's Fig 12 run 1.
func Run(p *sim.Proc, target Target, cfg Config) *Result {
	if cfg.NumPrompts <= 0 {
		cfg.NumPrompts = 1000
	}
	if cfg.MaxConcurrency <= 0 {
		cfg.MaxConcurrency = 1
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	entries := cfg.Dataset.Sample(rng, cfg.NumPrompts)

	res := &Result{Name: cfg.Name, Concurrency: cfg.MaxConcurrency}
	eng := p.Engine()
	start := p.Now()
	var end time.Time

	next := 0
	aborted := false
	group := eng.NewGroup()
	workers := cfg.MaxConcurrency
	if workers > cfg.NumPrompts {
		workers = cfg.NumPrompts
	}
	for w := 0; w < workers; w++ {
		group.Add(1)
		eng.Go(fmt.Sprintf("bench-worker-%d", w), func(wp *sim.Proc) {
			defer group.Finish()
			for {
				if aborted || next >= len(entries) {
					return
				}
				e := entries[next]
				next++
				reqStart := wp.Now()
				out, err := target.Do(wp, e.PromptTokens, e.OutputTokens)
				if err != nil {
					res.Failed++
					if cfg.ContinueOnError {
						end = wp.Now()
						continue
					}
					if !aborted {
						aborted = true
						res.Crashed = true
						res.CrashMsg = err.Error()
					}
					return
				}
				res.Completed++
				res.InputTokens += int64(e.PromptTokens)
				res.OutputTokens += int64(out.Generated)
				if out.TTFT > 0 {
					res.TTFT.AddDuration(out.TTFT)
				}
				for _, gap := range out.ITL {
					res.ITL.AddDuration(gap)
				}
				lat := wp.Now().Sub(reqStart)
				res.E2E.AddDuration(lat)
				if out.Generated > 1 && out.TTFT > 0 {
					res.TPOT.Add(float64(lat-out.TTFT) / float64(time.Millisecond) / float64(out.Generated-1))
				}
				end = wp.Now()
			}
		})
	}
	group.WaitAll(p)
	if end.IsZero() {
		end = p.Now()
	}
	res.Duration = end.Sub(start)
	if secs := res.Duration.Seconds(); secs > 0 {
		res.RequestThroughput = float64(res.Completed) / secs
		res.OutputThroughput = float64(res.OutputTokens) / secs
		res.TotalThroughput = float64(res.InputTokens+res.OutputTokens) / secs
	}
	return res
}

// SweepConcurrencies is the paper's x-axis: powers of two from 1 to 1024.
func SweepConcurrencies() []int {
	var out []int
	for c := 1; c <= 1024; c *= 2 {
		out = append(out, c)
	}
	return out
}

// Sweep runs the benchmark across concurrencies against one target,
// returning one Result per point. It stops early if a run crashes (the
// server is gone), recording the partial point like the paper's figures.
func Sweep(p *sim.Proc, target Target, base Config, concurrencies []int) []*Result {
	var out []*Result
	for _, c := range concurrencies {
		cfg := base
		cfg.MaxConcurrency = c
		cfg.Name = fmt.Sprintf("%s-c%d", base.Name, c)
		// benchmark_serving.py samples with a fixed seed, so every
		// concurrency point replays the same request set.
		r := Run(p, target, cfg)
		out = append(out, r)
		if r.Crashed {
			break
		}
	}
	return out
}

// ToSeries converts sweep results into a plot series (x = concurrency,
// y = output token throughput), annotating crashes.
func ToSeries(name string, results []*Result) metrics.Series {
	s := metrics.Series{Name: name}
	for _, r := range results {
		note := ""
		if r.Crashed {
			note = "crash"
		}
		s.Add(float64(r.Concurrency), r.OutputThroughput, note)
	}
	return s
}
