package vllm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"repro/internal/sched"
)

// clientRequests are chat requests shaped like the ones benchmark clients
// and examples send.
func clientRequests() []ChatRequest {
	return []ChatRequest{
		{Model: "meta-llama/Llama-3.1-8B-Instruct", Messages: []ChatMessage{
			{Role: "user", Content: SynthesizeTagged("benchmark request 7 ", 120)}}, MaxTokens: 64},
		{Model: "chat", Messages: []ChatMessage{
			bigSystemPrompt(),
			{Role: "user", Content: SynthesizeTagged("interactive s3 t0 ", 40)},
			{Role: "assistant", Content: SynthesizeText(33)},
			{Role: "user", Content: SynthesizeTagged("interactive s3 t1 ", 9)},
		}, MaxTokens: 200, Stream: true},
		{Model: "code", Messages: []ChatMessage{{Role: "user", Content: "hi"}},
			User: "alice", SessionID: "conv-9", Priority: "batch"},
		{Model: "chat", Messages: []ChatMessage{}},
		{},
	}
}

func TestChatRequestEncodeMatchesMarshal(t *testing.T) {
	check := func(r ChatRequest) {
		t.Helper()
		want, _ := json.Marshal(r)
		if got := EncodeChatRequest(r); !bytes.Equal(got, want) {
			t.Fatalf("EncodeChatRequest(%+v)\n got %s\nwant %s", r, got, want)
		}
	}
	for _, r := range clientRequests() {
		check(r)
	}
	for _, s := range hardStrings {
		check(ChatRequest{Model: s, Messages: []ChatMessage{{Role: s, Content: s}, {Role: "user", Content: s}}})
		check(ChatRequest{Model: "m", Messages: []ChatMessage{{Content: s}}, User: s, SessionID: s, Priority: s, Stream: true})
	}
	for _, n := range []int{0, 1, -1, 9, 10, -10, 1 << 40, math.MaxInt, math.MinInt} {
		check(ChatRequest{Model: "m", MaxTokens: n})
	}
	// A non-zero temperature takes the json.Marshal path.
	for _, temp := range []float64{0.7, -1, 1e-9, 2, math.Copysign(0, -1), math.NaN()} {
		check(ChatRequest{Model: "m", Messages: []ChatMessage{{Role: "user", Content: "x"}}, Temperature: temp, Stream: true})
	}
}

func TestChatResponseEncodeMatchesMarshal(t *testing.T) {
	for _, id := range append(hardStrings, "req-1", "req-123456") {
		for _, model := range hardStrings {
			for _, gen := range []int{0, 1, 2, 23, 24, 1000} {
				for _, prompt := range []int{0, 5, 12345} {
					want, _ := json.Marshal(ChatResponse{
						ID: "chatcmpl-" + id, Object: "chat.completion", Model: model,
						Choices: []ChatChoice{{
							Message:      ChatMessage{Role: "assistant", Content: SynthesizeText(gen)},
							FinishReason: "stop",
						}},
						Usage: Usage{PromptTokens: prompt, CompletionTokens: gen, TotalTokens: prompt + gen},
					})
					if got := chatResponseBody(id, model, prompt, gen); !bytes.Equal(got, want) {
						t.Fatalf("id %q model %q gen %d prompt %d:\n got %s\nwant %s", id, model, gen, prompt, got, want)
					}
				}
			}
		}
	}
}

func TestSynthesizeTagged(t *testing.T) {
	for _, tag := range []string{"", "a", "benchmark request 12 ", strings.Repeat("t", 100)} {
		for n := 0; n < 60; n++ {
			text := SynthesizeText(n)
			want := tag
			if len(tag) < len(text) {
				want = tag + text[len(tag):]
			}
			if got := SynthesizeTagged(tag, n); got != want {
				t.Fatalf("SynthesizeTagged(%q, %d) = %q, want %q", tag, n, got, want)
			}
		}
	}
}

// requestOracle decodes body as the API server did before the scanner:
// json.Unmarshal into a ChatRequest, then the derived prompt charge and
// block keys.
func requestOracle(body []byte, blockSize int) (ChatCall, error) {
	var cr ChatRequest
	if err := json.Unmarshal(body, &cr); err != nil {
		return ChatCall{}, err
	}
	c := ChatCall{Model: []byte(cr.Model), MaxTokens: cr.MaxTokens, Priority: cr.Priority, Stream: cr.Stream,
		Hashes: ChatPromptHashes(blockSize, cr.Messages)}
	for _, m := range cr.Messages {
		c.Prompt += EstimateTokens(m.Content) + 4
	}
	return c, nil
}

func sameCall(a, b ChatCall) bool {
	return bytes.Equal(a.Model, b.Model) && a.MaxTokens == b.MaxTokens && a.Priority == b.Priority &&
		a.Stream == b.Stream && a.Prompt == b.Prompt && slices.Equal(a.Hashes, b.Hashes)
}

func TestScanChatRequestTakesClientBodies(t *testing.T) {
	for i, r := range clientRequests() {
		body := EncodeChatRequest(r)
		got, ok := scanChatRequest(body, DefaultBlockSize)
		if !ok {
			t.Fatalf("request %d %s fell off the fast path", i, body)
		}
		want, _ := requestOracle(body, DefaultBlockSize)
		if !sameCall(got, want) {
			t.Errorf("request %d: scanned %+v, want %+v", i, got, want)
		}
	}
}

// requestSeeds is the seed corpus of FuzzDecodeChatRequest.
func requestSeeds() []string {
	seeds := []string{
		// Reordered keys, whitespace, every field.
		`{"stream":true,"priority":"interactive","session_id":"s","user":"u","temperature":0.5,"max_tokens":7,"messages":[{"content":"hello there","role":"user"}],"model":"m"}`,
		" \t{ \"model\" : \"m\" ,\n\"messages\" : [ { \"role\" : \"user\" , \"content\" : \"hi\" } ] ,\r\"max_tokens\" : 3 } \n",
		// Empty and null shapes.
		`{}`,
		`{"messages":[]}`,
		`{"messages":null}`,
		`{"messages":[{}]}`,
		`{"messages":[null]}`,
		`{"messages":[{"role":null,"content":null}]}`,
		`{"model":null,"max_tokens":null,"temperature":null,"user":null,"session_id":null,"priority":null,"stream":null}`,
		`{"messages":[{"role":"user","content":""}],"stream":false}`,
		// Duplicate keys.
		`{"model":"a","model":"b"}`,
		`{"max_tokens":1,"max_tokens":2}`,
		`{"messages":[{"role":"user","content":"a"}],"messages":[]}`,
		`{"messages":[{"role":"user","content":"a","content":"b"}]}`,
		`{"extra":1,"extra":2,"model":"m"}`,
		// Case-variant and non-ASCII keys.
		`{"Model":"m"}`,
		`{"MESSAGES":[{"role":"user","content":"x"}]}`,
		`{"messages":[{"Role":"user","content":"x"}]}`,
		`{"Max_Tokens":5}`,
		"{\"\u017ftream\":true}",
		"{\"max_to\u212aens\":5}",
		`{"modél":"m"}`,
		// Unknown fields of every shape.
		`{"model":"m","top_p":0.9,"n":1,"stop":["\n"],"logit_bias":{"50256":-100},"tools":[{"type":"function"}],"seed":null,"logprobs":false}`,
		`{"messages":[{"role":"user","content":"x","name":"bob","tool_calls":[]}]}`,
		`{"deep":[[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]],"model":"m"}`,
		`{"ext":"esc \" \\ \/ \b \f \n \r \t \u00e9 \ud800","model":"m"}`,
		`{"ext":"bad \x","model":"m"}`,
		`{"ext":"bad \u00g0","model":"m"}`,
		`{"ext":[1,2,],"model":"m"}`,
		`{"ext":{"a":1,},"model":"m"}`,
		`{"ext":tru,"model":"m"}`,
		`{"ext":nul,"model":"m"}`,
		// Escapes and string contents.
		`{"model":"a\"b"}`,
		`{"model":"\u006dodel"}`,
		`{"messages":[{"role":"user","content":"line\nbreak"}]}`,
		`{"messages":[{"role":"us\u0065r","content":"x"}]}`,
		"{\"model\":\"caf\u00e9 \u2028\"}",
		"{\"model\":\"bad \xff\"}",
		"{\"messages\":[{\"role\":\"user\",\"content\":\"bad \xff utf8\"}]}",
		"{\"user\":\"bad \xff\",\"session_id\":\"\xfe\"}",
		"{\"priority\":\"bad \xff\"}",
		"{\"messages\":[{\"role\":\"user\",\"content\":\"ctl \x01\"}]}",
		`{"priority":"interactive"}`,
		`{"priority":"batch"}`,
		`{"priority":"vip"}`,
		// Numbers.
		`{"max_tokens":-0}`,
		`{"max_tokens":-12}`,
		`{"max_tokens":1.5}`,
		`{"max_tokens":1e3}`,
		`{"max_tokens":01}`,
		`{"max_tokens":999999999999999999}`,
		`{"max_tokens":99999999999999999999}`,
		`{"max_tokens":"3"}`,
		`{"temperature":1e400}`,
		`{"temperature":-0.000001}`,
		`{"temperature":1.}`,
		`{"temperature":"hot"}`,
		`{"ext":-1.25e-7,"ext2":0.5E+3,"model":"m"}`,
		`{"ext":-,"model":"m"}`,
		// Wrong types for known fields.
		`{"model":5}`,
		`{"model":true}`,
		`{"messages":{}}`,
		`{"messages":[5]}`,
		`{"messages":[{"role":5}]}`,
		`{"messages":[{"content":["part"]}]}`,
		`{"stream":1}`,
		`{"stream":"true"}`,
		`{"user":5}`,
		`{"session_id":{}}`,
		// Not an object, truncated, trailing data.
		``,
		`null`,
		`[]`,
		`"chat"`,
		`{`,
		`{"model"`,
		`{"model":"m",}`,
		`{"model":"m"`,
		`{"model":"m"}x`,
		`{"model":"m"}{}`,
		`{"model":"m"} `,
		"\xef\xbb\xbf{}",
	}
	for _, r := range clientRequests() {
		body := EncodeChatRequest(r)
		seeds = append(seeds, string(body))
		for _, cut := range []int{1, len(body) / 3, len(body) / 2, len(body) - 1} {
			seeds = append(seeds, string(body[:cut]))
		}
	}
	return seeds
}

// checkDecodeRequest holds the scanner and DecodeChatRequest to the
// json.Unmarshal oracle: the scanner agrees with it or reports !ok, and
// DecodeChatRequest always agrees, error included.
func checkDecodeRequest(t *testing.T, body []byte) {
	for _, bs := range []int{DefaultBlockSize, 1, 0} {
		want, err := requestOracle(body, bs)
		if c, ok := scanChatRequest(body, bs); ok {
			if err != nil {
				t.Fatalf("scanner accepted %q, which json.Unmarshal rejects: %v", body, err)
			}
			if !sameCall(c, want) {
				t.Fatalf("block size %d: scanner read %q as %+v, json.Unmarshal as %+v", bs, body, c, want)
			}
		}
		c, derr := DecodeChatRequest(body, bs)
		if fmt.Sprint(derr) != fmt.Sprint(err) {
			t.Fatalf("DecodeChatRequest(%q) error %v, json.Unmarshal error %v", body, derr, err)
		}
		if err == nil && !sameCall(c, want) {
			t.Fatalf("block size %d: DecodeChatRequest read %q as %+v, json.Unmarshal as %+v", bs, body, c, want)
		}
	}
}

func FuzzDecodeChatRequest(f *testing.F) {
	for _, s := range requestSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(checkDecodeRequest)
}

// usageSeeds is the seed corpus of FuzzDecodeChatUsage.
func usageSeeds() []string {
	seeds := []string{
		`{"usage":{"total_tokens":9,"completion_tokens":7,"prompt_tokens":2},"choices":[{"finish_reason":"stop","message":{"content":"x","role":"assistant"},"index":0}],"model":"m","object":"chat.completion","id":"x"}`,
		" \t{ \"id\" : \"x\" ,\n\"choices\" : [ ] ,\r\"usage\" : { \"completion_tokens\" : 7 } } \n",
		`{}`,
		`{"choices":null,"usage":null}`,
		`{"choices":[null]}`,
		`{"choices":[{}]}`,
		`{"choices":[{"message":null}]}`,
		`{"choices":[{"message":{"role":null,"content":null}}]}`,
		`{"usage":{}}`,
		`{"usage":{"completion_tokens":null}}`,
		`{"usage":{"completion_tokens":3},"usage":null}`,
		`{"usage":{"completion_tokens":3,"completion_tokens":4}}`,
		`{"Usage":{"completion_tokens":3}}`,
		`{"usage":{"Completion_Tokens":3}}`,
		"{\"u\u017fage\":{\"completion_tokens\":3}}",
		"{\"usage\":{\"completion_to\u212aens\":3}}",
		`{"created":1700000000,"system_fingerprint":"fp","usage":{"completion_tokens":2,"cached":true},"choices":[{"logprobs":null,"message":{"content":"a","tool_calls":[]}}]}`,
		`{"id":"x\\y","usage":{"completion_tokens":2}}`,
		`{"choices":[{"message":{"content":"a\"b"}}],"usage":{"completion_tokens":2}}`,
		"{\"choices\":[{\"message\":{\"content\":\"bad \xff\"}}],\"usage\":{\"completion_tokens\":2}}",
		"{\"model\":\"ctl \x01\"}",
		`{"usage":{"completion_tokens":-0,"prompt_tokens":-12}}`,
		`{"usage":{"completion_tokens":1.5}}`,
		`{"usage":{"completion_tokens":1e3}}`,
		`{"usage":{"completion_tokens":01}}`,
		`{"usage":{"completion_tokens":99999999999999999999}}`,
		`{"usage":{"completion_tokens":"3"}}`,
		`{"choices":[{"index":1.0}]}`,
		`{"id":5}`,
		`{"choices":{}}`,
		`{"choices":[5]}`,
		`{"choices":[{"message":[]}]}`,
		`{"choices":[{"message":{"content":5}}]}`,
		`{"choices":[{"finish_reason":1}]}`,
		`{"usage":[]}`,
		`{"usage":5}`,
		``,
		`null`,
		`[]`,
		`{`,
		`{"usage":{"completion_tokens":2}`,
		`{"usage":{"completion_tokens":2}}x`,
		`{"usage":{"completion_tokens":2}} `,
	}
	for _, gen := range []int{0, 1, 64} {
		body := chatResponseBody("req-42", "meta-llama/Llama-3.1-8B-Instruct", 812, gen)
		seeds = append(seeds, string(body))
		for _, cut := range []int{1, len(body) / 3, len(body) / 2, len(body) - 1} {
			seeds = append(seeds, string(body[:cut]))
		}
	}
	return seeds
}

func checkDecodeUsage(t *testing.T, body []byte) {
	var cr ChatResponse
	err := json.Unmarshal(body, &cr)
	if u, ok := scanChatUsage(body); ok {
		if err != nil {
			t.Fatalf("scanner accepted %q, which json.Unmarshal rejects: %v", body, err)
		}
		if u != cr.Usage {
			t.Fatalf("scanner read %q as %+v, json.Unmarshal as %+v", body, u, cr.Usage)
		}
	}
	u, derr := DecodeChatUsage(body)
	if fmt.Sprint(derr) != fmt.Sprint(err) {
		t.Fatalf("DecodeChatUsage(%q) error %v, json.Unmarshal error %v", body, derr, err)
	}
	if err == nil && u != cr.Usage {
		t.Fatalf("DecodeChatUsage read %q as %+v, json.Unmarshal as %+v", body, u, cr.Usage)
	}
}

func FuzzDecodeChatUsage(f *testing.F) {
	for _, s := range usageSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(checkDecodeUsage)
}

// TestRequestScannersFallBack pins inputs the scanners must hand to
// json.Unmarshal rather than guess at.
func TestRequestScannersFallBack(t *testing.T) {
	for _, s := range []string{
		`{"Model":"m"}`,
		`{"model":"a","model":"b"}`,
		`{"model":"a\"b"}`,
		"{\"model\":\"bad \xff\"}",
		`{"max_tokens":1.5}`,
		`{"messages":[null]}`,
		`{"model":"m"}x`,
		`null`,
	} {
		if c, ok := scanChatRequest([]byte(s), DefaultBlockSize); ok {
			t.Errorf("request scanner took %q as %+v; want a fallback", s, c)
		}
	}
	for _, s := range []string{
		`{"Usage":{"completion_tokens":3}}`,
		`{"usage":{"completion_tokens":3},"usage":null}`,
		`{"id":"a\"b"}`,
		`{"usage":{"completion_tokens":1e3}}`,
		`null`,
	} {
		if u, ok := scanChatUsage([]byte(s)); ok {
			t.Errorf("usage scanner took %q as %+v; want a fallback", s, u)
		}
	}
}

// TestRequestPathAllocBudget: on the bodies clients and the server send,
// the front door's attribute scan allocates only the strings it returns,
// the engine's request decode only its block-key slice, the reply decode
// nothing, and each encoder only the body it returns.
func TestRequestPathAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are distorted by -race instrumentation")
	}
	budget := func(name string, want float64, fn func()) {
		t.Helper()
		if got := testing.AllocsPerRun(200, fn); got > want {
			t.Errorf("%s allocates %.1f per call, budget %.0f", name, got, want)
		}
	}
	describeBody := []byte(`{"model":"chat","session_id":"conversation-42","priority":"interactive","messages":[{"role":"user","content":"hi"}]}`)
	budget("sched.Describe", 2, func() {
		if _, err := sched.Describe(nil, describeBody); err != nil {
			t.Fatal(err)
		}
	})
	req := clientRequests()[1]
	body := EncodeChatRequest(req)
	budget("DecodeChatRequest", 1, func() {
		if c, err := DecodeChatRequest(body, DefaultBlockSize); err != nil || len(c.Hashes) == 0 {
			t.Fatalf("decode: %v, %d keys", err, len(c.Hashes))
		}
	})
	budget("EncodeChatRequest", 1, func() { body = EncodeChatRequest(req) })
	reply := chatResponseBody("req-42", "chat", 812, 64)
	budget("chatResponseBody", 1, func() { reply = chatResponseBody("req-42", "chat", 812, 64) })
	budget("DecodeChatUsage", 0, func() {
		if u, err := DecodeChatUsage(reply); err != nil || u.CompletionTokens != 64 {
			t.Fatalf("usage: %+v, %v", u, err)
		}
	})
}

func BenchmarkChatRequestEncode(b *testing.B) {
	req := clientRequests()[1]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(EncodeChatRequest(req)) == 0 {
			b.Fatal("empty body")
		}
	}
}

func BenchmarkChatRequestDecode(b *testing.B) {
	body := EncodeChatRequest(clientRequests()[1])
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if c, err := DecodeChatRequest(body, DefaultBlockSize); err != nil || c.Prompt == 0 {
			b.Fatal("decode failed")
		}
	}
}

func BenchmarkChatResponseEncode(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(chatResponseBody("req-42", "meta-llama/Llama-3.1-8B-Instruct", 812, 64)) == 0 {
			b.Fatal("empty body")
		}
	}
}
