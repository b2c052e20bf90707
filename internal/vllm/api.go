package vllm

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/vhttp"
)

// OpenAI-compatible API types (the subset the case study exercises).

// ChatMessage is one turn of a chat conversation.
type ChatMessage struct {
	Role    string `json:"role"`
	Content string `json:"content"`
}

// ChatRequest is the body of POST /v1/chat/completions (Fig 7).
type ChatRequest struct {
	Model       string        `json:"model"`
	Messages    []ChatMessage `json:"messages"`
	MaxTokens   int           `json:"max_tokens,omitempty"`
	Temperature float64       `json:"temperature,omitempty"`
	// User is OpenAI's stable end-user identifier; the gateway's session-
	// affinity routing uses it as the fallback session key.
	User string `json:"user,omitempty"`
	// SessionID explicitly groups multi-turn requests for session-affinity
	// routing (takes precedence over User).
	SessionID string `json:"session_id,omitempty"`
	// Priority is the request's scheduling class ("interactive" or
	// "batch"); batch-class requests are shed first under an SLO breach.
	Priority string `json:"priority,omitempty"`
	// Stream requests OpenAI-style server-sent events: one
	// chat.completion.chunk delta per generated token, terminated by a
	// `data: [DONE]` event. TTFT is then the client-observed first-chunk
	// time instead of whole-response time.
	Stream bool `json:"stream,omitempty"`
}

// ChatChoice is one completion alternative.
type ChatChoice struct {
	Index        int         `json:"index"`
	Message      ChatMessage `json:"message"`
	FinishReason string      `json:"finish_reason"`
}

// Usage reports token accounting.
type Usage struct {
	PromptTokens     int `json:"prompt_tokens"`
	CompletionTokens int `json:"completion_tokens"`
	TotalTokens      int `json:"total_tokens"`
}

// ChatResponse is the completion result.
type ChatResponse struct {
	ID      string       `json:"id"`
	Object  string       `json:"object"`
	Model   string       `json:"model"`
	Choices []ChatChoice `json:"choices"`
	Usage   Usage        `json:"usage"`
}

// ChatDelta is the incremental message fragment inside a streamed chunk.
type ChatDelta struct {
	Role    string `json:"role,omitempty"`
	Content string `json:"content,omitempty"`
}

// ChatChunkChoice is one choice of a streamed chunk.
type ChatChunkChoice struct {
	Index        int       `json:"index"`
	Delta        ChatDelta `json:"delta"`
	FinishReason string    `json:"finish_reason,omitempty"`
}

// ChatChunk is one SSE event body of a streamed chat completion
// (object "chat.completion.chunk").
type ChatChunk struct {
	ID      string            `json:"id"`
	Object  string            `json:"object"`
	Model   string            `json:"model"`
	Choices []ChatChunkChoice `json:"choices"`
	Usage   *Usage            `json:"usage,omitempty"`
}

// ErrorResponse mirrors the OpenAI error envelope.
type ErrorResponse struct {
	Error struct {
		Message string `json:"message"`
		Type    string `json:"type"`
	} `json:"error"`
}

// modelList is GET /v1/models.
type modelList struct {
	Object string      `json:"object"`
	Data   []modelItem `json:"data"`
}

type modelItem struct {
	ID      string `json:"id"`
	Object  string `json:"object"`
	OwnedBy string `json:"owned_by"`
}

// ModelListBody renders the OpenAI GET /v1/models response body for the
// given served model ids. Shared by the APIServer (one id per engine) and
// the ingress layer, where the gateway/router answer authoritatively for
// the model names they front instead of reflecting whichever replica a
// probe happens to hit.
func ModelListBody(ids ...string) []byte {
	ml := modelList{Object: "list", Data: []modelItem{}}
	for _, id := range ids {
		ml.Data = append(ml.Data, modelItem{ID: id, Object: "model", OwnedBy: "vllm"})
	}
	body, _ := json.Marshal(ml)
	return body
}

// EstimateTokens approximates tokenization at four characters per token,
// matching the coarse accounting real serving stacks use for sizing.
func EstimateTokens(text string) int {
	n := (len(text) + 3) / 4
	if n < 1 {
		n = 1
	}
	return n
}

// SynthesizeText produces placeholder completion text of about n tokens.
func SynthesizeText(n int) string {
	var b strings.Builder
	for b.Len() < n*4 {
		b.WriteString(synthWords)
	}
	return b.String()[:n*4]
}

const synthWords = "the model generated this simulated completion token stream for benchmarking purposes only "

// TokenText returns the n-th (1-based) token's text of the synthesized
// completion, so a streamed response concatenates to the same body a
// buffered SynthesizeText(total) call would produce.
func TokenText(n int) string {
	start := ((n - 1) * 4) % len(synthWords)
	end := start + 4
	if end <= len(synthWords) {
		return synthWords[start:end]
	}
	return synthWords[start:] + synthWords[:end-len(synthWords)]
}

// APIServer exposes an Engine over the OpenAI-compatible HTTP surface.
type APIServer struct {
	Engine     *Engine
	ServedName string // --served-model-name
	Replica    string // instance identity stamped into telemetry snapshots
	APIKey     string // optional bearer token
	// DefaultMaxTokens bounds generation when the request omits max_tokens.
	DefaultMaxTokens int
}

func jsonErr(status int, msg string) *vhttp.Response {
	var er ErrorResponse
	er.Error.Message = msg
	er.Error.Type = "invalid_request_error"
	body, _ := json.Marshal(er)
	return vhttp.JSON(status, body)
}

// Serve implements vhttp.Service.
func (a *APIServer) Serve(p *sim.Proc, req *vhttp.Request) *vhttp.Response {
	switch {
	case req.Path == "/health":
		if crashed, err := a.Engine.Crashed(); crashed {
			return vhttp.Text(500, "unhealthy: "+err.Error())
		}
		return vhttp.Text(200, "ok")

	case req.Path == "/v1/models":
		return vhttp.JSON(200, ModelListBody(a.servedName()))

	case req.Path == "/metrics":
		return vhttp.Text(200, a.renderMetrics())

	case req.Path == telemetry.Path:
		snap := a.Engine.Telemetry()
		snap.Model = a.servedName()
		snap.Replica = a.Replica
		snap.CapturedAt = p.Now()
		return vhttp.JSON(200, snap.Encode())

	case req.Path == "/v1/chat/completions" && req.Method == "POST":
		return a.chat(p, req)

	case req.Path == "/v1/completions" && req.Method == "POST":
		return a.completions(p, req)
	}
	return jsonErr(404, "unknown endpoint "+req.Path)
}

func (a *APIServer) servedName() string {
	if a.ServedName != "" {
		return a.ServedName
	}
	return a.Engine.Config().Model.Name
}

func (a *APIServer) authorized(req *vhttp.Request) bool {
	if a.APIKey == "" {
		return true
	}
	return req.Header["Authorization"] == "Bearer "+a.APIKey
}

func (a *APIServer) chat(p *sim.Proc, req *vhttp.Request) *vhttp.Response {
	if !a.authorized(req) {
		return jsonErr(401, "invalid API key")
	}
	var cr ChatRequest
	if err := json.Unmarshal(req.Body, &cr); err != nil {
		return jsonErr(400, "bad request body: "+err.Error())
	}
	if cr.Model != "" && cr.Model != a.servedName() {
		return jsonErr(404, fmt.Sprintf("model %q does not exist; serving %q", cr.Model, a.servedName()))
	}
	prompt := 0
	for _, m := range cr.Messages {
		prompt += EstimateTokens(m.Content) + 4 // +4 per-message template overhead
	}
	maxNew := cr.MaxTokens
	if maxNew <= 0 {
		maxNew = a.defaultMax()
	}
	if req.Header[sched.WarmupHeader] != "" {
		// Prefix warm-up: the gateway pre-positions a migrated session's
		// prompt blocks. Prefill is the whole point; generate one token
		// and stop.
		maxNew = 1
	}
	opts := SubmitOptions{
		Prompt: prompt, MaxNew: maxNew,
		PromptHashes: ChatPromptHashes(a.Engine.Config().BlockSize, cr.Messages),
		Class:        cr.Priority,
	}
	applySchedHints(&opts, req.Header)
	opts.Trace = a.startTrace(p, req)
	if cr.Stream {
		return a.chatStream(p, cr, prompt, opts)
	}
	r := a.Engine.SubmitOpts(opts)
	p.Wait(r.Done())
	if r.Err != nil {
		return jsonErr(500, r.Err.Error())
	}
	resp := ChatResponse{
		ID: "chatcmpl-" + r.ID, Object: "chat.completion", Model: a.servedName(),
		Choices: []ChatChoice{{
			Message:      ChatMessage{Role: "assistant", Content: SynthesizeText(r.Generated)},
			FinishReason: "stop",
		}},
		Usage: Usage{PromptTokens: prompt, CompletionTokens: r.Generated, TotalTokens: prompt + r.Generated},
	}
	body, _ := json.Marshal(resp)
	out := vhttp.JSON(200, body)
	// Streaming clients observe TTFT directly; the simulation surfaces it as
	// a response header so the benchmark can record the same metric.
	out.SetHeader("X-Request-Ttft-Micros", fmt.Sprintf("%d", r.TTFT().Microseconds()))
	if et := opts.Trace; et != nil {
		et.Finish(p.Now(), "")
		out.Trace = et
	}
	return out
}

// applySchedHints folds the gateway-stamped scheduling headers into the
// submit options: the resolved priority class (X-Priority takes precedence
// over the body's priority field — the gateway has already applied its
// default-class policy), the TTFT deadline budget, and the SLO-breach
// boost. Requests arriving without the headers (direct engine access, old
// gateways) keep the body-derived behaviour.
func applySchedHints(opts *SubmitOptions, header map[string]string) {
	if cls := header[sched.PriorityHeader]; cls != "" {
		opts.Class = cls
	}
	if v := header[sched.TTFTTargetHeader]; v != "" {
		if us, err := strconv.ParseInt(v, 10, 64); err == nil && us > 0 {
			opts.TTFTTarget = time.Duration(us) * time.Microsecond
		}
	}
	opts.SLOBreach = header[sched.SLOBreachedHeader] != ""
}

// startTrace builds the engine-side trace context of a request carrying
// an X-Trace-Id header (nil otherwise — untraced requests must not
// allocate). The trace rides SubmitOptions into the engine loop, which
// appends queue/prefill/first-token/decode spans, and returns to the
// caller on Response.Trace — the in-process equivalent of an engine
// pushing its spans to a collector keyed by the propagated trace ID.
func (a *APIServer) startTrace(p *sim.Proc, req *vhttp.Request) *trace.Trace {
	id := req.Header[trace.Header]
	if id == "" {
		return nil
	}
	return &trace.Trace{ID: id, Model: a.servedName(), Replica: a.Replica, Start: p.Now()}
}

// chatStream serves `stream: true`: tokens are pushed into a chunked body
// as the engine's decode loop produces them, one chat.completion.chunk SSE
// event per token, closed with `data: [DONE]`.
//
// The handler waits for the FIRST token before returning the response
// headers, which fixes the retry boundary: a request that dies before its
// first token surfaces as a buffered 500 the gateway may retry on another
// replica; once the first byte is out, a failure truncates the stream
// (Err() on the reader) and is never silently retried.
func (a *APIServer) chatStream(p *sim.Proc, cr ChatRequest, prompt int, opts SubmitOptions) *vhttp.Response {
	stream := vhttp.NewBodyStream()
	ready := p.Engine().NewSignal()
	// Every chunk of the stream starts with the same bytes; they are
	// encoded once, when SubmitOpts has assigned the id.
	var head []byte
	opts.OnToken = func(r *Request, n int) {
		d := ChatDelta{Content: TokenText(n)}
		if n == 1 {
			// The first delta also names the assistant role, per OpenAI.
			d.Role = "assistant"
		}
		stream.Push(vhttp.Chunk{Data: tokenChunk(head, d)})
		if n == 1 {
			ready.Fire()
		}
	}
	r := a.Engine.SubmitOpts(opts)
	head = appendChunkHead(nil, "chatcmpl-"+r.ID, a.servedName())
	r.Done().OnFire(func() {
		if r.Err != nil {
			stream.Fail(r.Err)
		} else {
			// Terminal chunk: empty delta, finish_reason, usage accounting.
			stream.Push(vhttp.Chunk{Data: appendChunk(nil, head, ChatDelta{}, "stop",
				&Usage{PromptTokens: prompt, CompletionTokens: r.Generated, TotalTokens: prompt + r.Generated})})
			stream.Push(vhttp.Chunk{Data: []byte(SSEDone)})
			stream.Close()
		}
		ready.Fire()
	})
	p.Wait(ready)
	if r.Err != nil && r.FirstToken.IsZero() {
		// Failed before the first byte: a retryable buffered error.
		return jsonErr(500, r.Err.Error())
	}
	resp := &vhttp.Response{Status: 200, Stream: stream}
	resp.SetHeader("Content-Type", "text/event-stream")
	resp.SetHeader("X-Request-Ttft-Micros", fmt.Sprintf("%d", r.TTFT().Microseconds()))
	if et := opts.Trace; et != nil {
		// The pointer stays live while the stream drains: the engine
		// records the decode span at finish, which precedes the terminal
		// chunk's delivery, so the consumer sees it at stream settle.
		resp.Trace = et
	}
	return resp
}

// completionRequest is the body of POST /v1/completions.
type completionRequest struct {
	Model     string `json:"model"`
	Prompt    string `json:"prompt"`
	MaxTokens int    `json:"max_tokens,omitempty"`
}

func (a *APIServer) completions(p *sim.Proc, req *vhttp.Request) *vhttp.Response {
	if !a.authorized(req) {
		return jsonErr(401, "invalid API key")
	}
	var cr completionRequest
	if err := json.Unmarshal(req.Body, &cr); err != nil {
		return jsonErr(400, "bad request body: "+err.Error())
	}
	prompt := EstimateTokens(cr.Prompt)
	maxNew := cr.MaxTokens
	if maxNew <= 0 {
		maxNew = a.defaultMax()
	}
	et := a.startTrace(p, req)
	opts := SubmitOptions{
		Prompt: prompt, MaxNew: maxNew,
		PromptHashes: TextPromptHashes(a.Engine.Config().BlockSize, cr.Prompt),
		Trace:        et,
	}
	applySchedHints(&opts, req.Header)
	r := a.Engine.SubmitOpts(opts)
	p.Wait(r.Done())
	if r.Err != nil {
		return jsonErr(500, r.Err.Error())
	}
	body, _ := json.Marshal(map[string]any{
		"id": "cmpl-" + r.ID, "object": "text_completion", "model": a.servedName(),
		"choices": []map[string]any{{"index": 0, "text": SynthesizeText(r.Generated), "finish_reason": "stop"}},
		"usage":   Usage{PromptTokens: prompt, CompletionTokens: r.Generated, TotalTokens: prompt + r.Generated},
	})
	out := vhttp.JSON(200, body)
	if et != nil {
		et.Finish(p.Now(), "")
		out.Trace = et
	}
	return out
}

func (a *APIServer) defaultMax() int {
	if a.DefaultMaxTokens > 0 {
		return a.DefaultMaxTokens
	}
	return 256
}

// renderMetrics emits a Prometheus-flavored snapshot like vLLM's /metrics.
func (a *APIServer) renderMetrics() string {
	st := a.Engine.Stats()
	waiting, running := a.Engine.QueueDepth()
	var b strings.Builder
	fmt.Fprintf(&b, "vllm:num_requests_running %d\n", running)
	fmt.Fprintf(&b, "vllm:num_requests_waiting %d\n", waiting)
	fmt.Fprintf(&b, "vllm:request_success_total %d\n", st.Completed)
	fmt.Fprintf(&b, "vllm:request_failure_total %d\n", st.Failed)
	fmt.Fprintf(&b, "vllm:generation_tokens_total %d\n", st.TokensOut)
	fmt.Fprintf(&b, "vllm:num_preemptions_total %d\n", st.Preemptions)
	fmt.Fprintf(&b, "vllm:num_resumes_total %d\n", st.Resumes)
	fmt.Fprintf(&b, "vllm:deadline_misses_total %d\n", st.DeadlineMisses)
	fmt.Fprintf(&b, "vllm:gpu_cache_usage_perc %.4f\n",
		float64(a.Engine.KV().UsedBlocks())/float64(max(1, a.Engine.KV().TotalBlocks())))
	fmt.Fprintf(&b, "vllm:prefix_cache_hits_total %d\n", st.PrefixHits)
	fmt.Fprintf(&b, "vllm:prefix_cache_queries_total %d\n", st.PrefixHits+st.PrefixMisses)
	fmt.Fprintf(&b, "vllm:prefix_cache_evictions_total %d\n", st.PrefixEvictions)
	fmt.Fprintf(&b, "vllm:cpu_cache_demotions_total %d\n", st.TierDemotions)
	fmt.Fprintf(&b, "vllm:cpu_cache_promotions_total %d\n", st.TierPromotions)
	return b.String()
}
