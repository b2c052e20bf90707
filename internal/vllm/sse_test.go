package vllm

import (
	"bytes"
	"encoding/json"
	"testing"
)

// marshalChunk is the oracle the encoder must match byte for byte:
// encoding/json's ChatChunk plus the SSE framing.
func marshalChunk(t testing.TB, c ChatChunk) []byte {
	t.Helper()
	body, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	return []byte(SSEData + string(body) + "\n\n")
}

// hardStrings exercise every branch of encoding/json's string escaping.
var hardStrings = []string{
	"",
	"the ",
	"chatcmpl-req-17",
	"meta-llama/Llama-3.1-8B-Instruct",
	"<script>&amp;</script>",
	`say "hi"`,
	`C:\path\to`,
	"tab\there\nnewline\x00nul\x1f",
	"\x7f del",
	"héllo wörld ✓",
	"line\u2028sep\u2029para",
	"bad \xff\xfe utf8",
	"truncated \xe2\x80",
}

func TestSSEChunkEncodeMatchesMarshal(t *testing.T) {
	usage := &Usage{PromptTokens: 1234, CompletionTokens: 56, TotalTokens: 1290}
	for _, id := range hardStrings {
		for _, model := range hardStrings {
			head := appendChunkHead(nil, id, model)
			for _, content := range hardStrings {
				cases := []struct {
					name   string
					delta  ChatDelta
					finish string
					usage  *Usage
				}{
					{"first", ChatDelta{Role: "assistant", Content: content}, "", nil},
					{"middle", ChatDelta{Content: content}, "", nil},
					{"terminal", ChatDelta{}, "stop", usage},
					{"odd", ChatDelta{Role: content}, content, &Usage{CompletionTokens: -3}},
				}
				for _, c := range cases {
					want := marshalChunk(t, ChatChunk{
						ID: id, Object: "chat.completion.chunk", Model: model,
						Choices: []ChatChunkChoice{{Delta: c.delta, FinishReason: c.finish}},
						Usage:   c.usage,
					})
					if got := appendChunk(nil, head, c.delta, c.finish, c.usage); !bytes.Equal(got, want) {
						t.Fatalf("%s chunk (id %q, model %q, content %q):\n got %q\nwant %q",
							c.name, id, model, content, got, want)
					}
				}
			}
		}
	}
}

// TestChatStreamWireMatchesMarshal: every chunk the API server streams is
// the bytes encoding/json would have produced for the same ChatChunk.
func TestChatStreamWireMatchesMarshal(t *testing.T) {
	se, net, _ := apiFixture(t)
	_, raw, _, streamErr := postStream(se, net, 5)
	if streamErr != nil {
		t.Fatal(streamErr)
	}
	chunks, sawDone := collectSSE(t, raw)
	if !sawDone || len(chunks) != 6 {
		t.Fatalf("got %d chunks, done=%v", len(chunks), sawDone)
	}
	for i, c := range chunks {
		if want := marshalChunk(t, c); !bytes.Equal(raw[i], want) {
			t.Errorf("chunk %d:\n got %q\nwant %q", i, raw[i], want)
		}
	}
}

func TestParseSSE(t *testing.T) {
	for _, c := range []struct {
		raw     string
		payload string
		ok      bool
	}{
		{"data: {}\n\n", "{}", true},
		{"data: [DONE]\n\n", "[DONE]", true},
		{"data: \n\n", "", true},
		{"data: x", "x", true},
		{": comment\n\n", "", false},
		{"", "", false},
	} {
		payload, ok := ParseSSE([]byte(c.raw))
		if ok != c.ok || string(payload) != c.payload {
			t.Errorf("ParseSSE(%q) = %q, %v; want %q, %v", c.raw, payload, ok, c.payload, c.ok)
		}
	}
}

// serverChunks are the three kinds of chunk the API server streams.
func serverChunks() [][]byte {
	head := appendChunkHead(nil, "chatcmpl-req-42", "meta-llama/Llama-3.1-8B-Instruct")
	return [][]byte{
		appendChunk(nil, head, ChatDelta{Role: "assistant", Content: TokenText(1)}, "", nil),
		appendChunk(nil, head, ChatDelta{Content: TokenText(2)}, "", nil),
		appendChunk(nil, head, ChatDelta{}, "stop", &Usage{PromptTokens: 812, CompletionTokens: 64, TotalTokens: 876}),
	}
}

func TestScanChatChunkTakesServerChunks(t *testing.T) {
	want := []ChunkDelta{
		{Content: []byte(TokenText(1))},
		{Content: []byte(TokenText(2))},
		{HasUsage: true, Usage: Usage{PromptTokens: 812, CompletionTokens: 64, TotalTokens: 876}},
	}
	for i, raw := range serverChunks() {
		payload, _ := ParseSSE(raw)
		d, ok := scanChatChunk(payload)
		if !ok {
			t.Fatalf("chunk %d %q fell off the fast path", i, payload)
		}
		if !bytes.Equal(d.Content, want[i].Content) || d.HasUsage != want[i].HasUsage || d.Usage != want[i].Usage {
			t.Errorf("chunk %d: got %+v, want %+v", i, d, want[i])
		}
	}
}

// decodeSeeds is the seed corpus of FuzzDecodeChatChunk.
func decodeSeeds() []string {
	seeds := []string{
		// Reordered keys and extra whitespace.
		`{"choices":[{"delta":{"content":"hi","role":"assistant"},"index":0}],"model":"m","object":"chat.completion.chunk","id":"x"}`,
		" \t{ \"id\" : \"x\" ,\n\"choices\" : [ { \"index\" : 0 , \"delta\" : { \"content\" : \"hi\" } } ] ,\r\"usage\" : { \"completion_tokens\" : 7 } } \n",
		`{"usage":{"total_tokens":9,"completion_tokens":7,"prompt_tokens":2},"choices":[{"finish_reason":"stop","delta":{}}]}`,
		// Empty and null shapes.
		`{}`,
		`{"choices":[]}`,
		`{"choices":null}`,
		`{"usage":null}`,
		`{"usage":{}}`,
		`{"choices":[{}]}`,
		`{"choices":[{"delta":null}]}`,
		`{"choices":[{"delta":{"content":null,"role":null}}],"id":null}`,
		`{"choices":[{"delta":{"content":""}}]}`,
		`{"usage":{"completion_tokens":null}}`,
		`{"choices":[{"delta":{"content":"a"}},{"delta":{"content":"b"}}]}`,
		// Duplicate keys.
		`{"usage":{"completion_tokens":3},"usage":null}`,
		`{"usage":{"completion_tokens":3},"usage":{"prompt_tokens":1}}`,
		`{"usage":{"completion_tokens":3,"completion_tokens":4}}`,
		`{"choices":[{"delta":{"content":"a","content":"b"}}]}`,
		`{"choices":[{"delta":{"content":"a"}}],"choices":[{"index":0}]}`,
		`{"choices":[{"delta":{"content":"a"},"delta":{"role":"x"}}]}`,
		`{"extra":1,"extra":2,"choices":[{"delta":{"content":"a"}}]}`,
		// Case-variant and non-ASCII keys.
		`{"Usage":{"completion_tokens":3}}`,
		`{"usage":{"Completion_Tokens":3}}`,
		`{"CHOICES":[{"delta":{"content":"x"}}]}`,
		`{"choices":[{"Delta":{"content":"x"}}]}`,
		`{"choices":[{"delta":{"Content":"x"}}]}`,
		"{\"u\u017fage\":{\"completion_tokens\":3}}",
		"{\"usage\":{\"completion_to\u212aens\":3}}",
		`{"ID":"x","Model":5}`,
		// Escapes and string contents.
		`{"choices":[{"delta":{"content":"a\"b"}}]}`,
		`{"choices":[{"delta":{"content":"caf\u00e9"}}]}`,
		`{"choices":[{"delta":{"content":"\u003cb\u003e"}}]}`,
		`{"id":"x\\y","choices":[{"delta":{"content":"ok"}}]}`,
		`{"ext":"\ud800","choices":[{"delta":{"content":"ok"}}]}`,
		"{\"choices\":[{\"delta\":{\"content\":\"caf\u00e9 \u2028\"}}]}",
		"{\"choices\":[{\"delta\":{\"content\":\"bad \xff\"}}]}",
		"{\"choices\":[{\"delta\":{\"content\":\"ctl \x01\"}}]}",
		"{\"ext\":\"bad \xff\",\"choices\":[{\"delta\":{\"content\":\"ok\"}}]}",
		// Numbers.
		`{"usage":{"completion_tokens":-0,"prompt_tokens":-12}}`,
		`{"usage":{"completion_tokens":1.5}}`,
		`{"usage":{"completion_tokens":1e3}}`,
		`{"usage":{"completion_tokens":01}}`,
		`{"usage":{"completion_tokens":999999999999999999}}`,
		`{"usage":{"completion_tokens":99999999999999999999}}`,
		`{"usage":{"completion_tokens":"3"}}`,
		`{"choices":[{"index":1.0,"delta":{"content":"x"}}]}`,
		`{"ext":-1.25e-7,"ext2":0.5E+3,"choices":[{"delta":{"content":"x"}}]}`,
		`{"ext":1.,"choices":[]}`,
		`{"ext":-,"choices":[]}`,
		// Unknown fields of every shape.
		`{"system_fingerprint":"fp","logprobs":null,"choices":[{"logprobs":{"content":[{"token":"a","bytes":[97]}]},"delta":{"content":"a","tool_calls":[]}}],"usage":{"cached":true,"completion_tokens":2}}`,
		`{"deep":[[[[[[[[[[[[[[[[[[[[1]]]]]]]]]]]]]]]]]]],"choices":[{"delta":{"content":"a"}}]}`,
		`{"ext":[1,2,],"choices":[]}`,
		`{"ext":{"a":1,},"choices":[]}`,
		`{"ext":tru,"choices":[]}`,
		// Wrong types for known fields.
		`{"id":5}`,
		`{"id":true}`,
		`{"choices":{}}`,
		`{"choices":[5]}`,
		`{"choices":[null]}`,
		`{"choices":[{"delta":[]}]}`,
		`{"choices":[{"delta":{"content":5}}]}`,
		`{"choices":[{"finish_reason":1}]}`,
		`{"usage":[]}`,
		`{"usage":5}`,
		// Not an object, truncated, trailing data.
		``,
		`null`,
		`[]`,
		`"chunk"`,
		`{`,
		`{"id"`,
		`{"id":"x",}`,
		`{"choices":[{"delta":{"content":"hi"}}]`,
		`{"choices":[{"delta":{"content":"hi"}}]}x`,
		`{"choices":[{"delta":{"content":"hi"}}]}{}`,
		`{"choices":[{"delta":{"content":"hi"}}]} `,
		"\xef\xbb\xbf{}",
	}
	for _, raw := range serverChunks() {
		payload, _ := ParseSSE(raw)
		seeds = append(seeds, string(payload))
		for _, cut := range []int{1, len(payload) / 3, len(payload) / 2, len(payload) - 1} {
			seeds = append(seeds, string(payload[:cut]))
		}
	}
	return seeds
}

// checkDecode holds the scanner and DecodeChatChunk to json.Unmarshal: the
// scanner either agrees with it on content and usage or reports !ok, and
// DecodeChatChunk always agrees, error included.
func checkDecode(t *testing.T, payload []byte) {
	var c ChatChunk
	err := json.Unmarshal(payload, &c)
	var want ChunkDelta
	if len(c.Choices) > 0 {
		want.Content = []byte(c.Choices[0].Delta.Content)
	}
	if c.Usage != nil {
		want.HasUsage, want.Usage = true, *c.Usage
	}
	agree := func(got ChunkDelta) bool {
		return bytes.Equal(got.Content, want.Content) && got.HasUsage == want.HasUsage && got.Usage == want.Usage
	}
	if d, ok := scanChatChunk(payload); ok {
		if err != nil {
			t.Fatalf("scanner accepted %q, which json.Unmarshal rejects: %v", payload, err)
		}
		if !agree(d) {
			t.Fatalf("scanner read %q as %+v, json.Unmarshal as %+v", payload, d, want)
		}
	}
	d, derr := DecodeChatChunk(payload)
	if (derr == nil) != (err == nil) {
		t.Fatalf("DecodeChatChunk(%q) error %v, json.Unmarshal error %v", payload, derr, err)
	}
	if err == nil && !agree(d) {
		t.Fatalf("DecodeChatChunk read %q as %+v, json.Unmarshal as %+v", payload, d, want)
	}
}

func FuzzDecodeChatChunk(f *testing.F) {
	for _, s := range decodeSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(checkDecode)
}

// TestScanChatChunkFallsBack pins the inputs the scanner must hand to
// json.Unmarshal rather than guess at.
func TestScanChatChunkFallsBack(t *testing.T) {
	for _, s := range []string{
		`{"created":1700000000,"choices":[{"delta":{"content":"a"}}]}`,
		`{"Usage":{"completion_tokens":3}}`,
		`{"usage":{"completion_tokens":3},"usage":null}`,
		`{"choices":[{"delta":{"content":"a\"b"}}]}`,
		"{\"choices\":[{\"delta\":{\"content\":\"bad \xff\"}}]}",
		`{"usage":{"completion_tokens":1.5}}`,
		`null`,
	} {
		if d, ok := scanChatChunk([]byte(s)); ok {
			t.Errorf("scanner took %q as %+v; want a fallback", s, d)
		}
	}
}

// TestSSEChunkAllocBudget: encoding a token chunk costs exactly the one
// buffer that is pushed downstream, and reading one allocates nothing.
func TestSSEChunkAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("alloc counts are distorted by -race instrumentation")
	}
	head := appendChunkHead(nil, "chatcmpl-req-42", "meta-llama/Llama-3.1-8B-Instruct")
	n := 0
	var sink []byte
	enc := testing.AllocsPerRun(500, func() {
		n++
		d := ChatDelta{Content: TokenText(n)}
		if n%2 == 1 {
			d.Role = "assistant"
		}
		sink = tokenChunk(head, d)
	})
	if enc != 1 {
		t.Errorf("encode allocates %.1f per chunk, want 1", enc)
	}
	_ = sink
	for i, raw := range serverChunks() {
		dec := testing.AllocsPerRun(500, func() {
			payload, _ := ParseSSE(raw)
			if _, err := DecodeChatChunk(payload); err != nil {
				t.Fatal(err)
			}
		})
		if dec != 0 {
			t.Errorf("decode of chunk %d allocates %.1f, want 0", i, dec)
		}
	}
}

func BenchmarkSSEChunkEncode(b *testing.B) {
	head := appendChunkHead(nil, "chatcmpl-req-42", "meta-llama/Llama-3.1-8B-Instruct")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(tokenChunk(head, ChatDelta{Content: TokenText(i + 1)})) == 0 {
			b.Fatal("empty chunk")
		}
	}
}

func BenchmarkSSEChunkDecode(b *testing.B) {
	raw := serverChunks()[1]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		payload, _ := ParseSSE(raw)
		if d, err := DecodeChatChunk(payload); err != nil || len(d.Content) == 0 {
			b.Fatal("content vanished")
		}
	}
}
