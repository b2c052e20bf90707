package vllm

import (
	"encoding/json"
	"strings"
	"testing"
)

func bigSystemPrompt() ChatMessage {
	return ChatMessage{Role: "system", Content: strings.Repeat("You are a careful HPC serving assistant. ", 12)}
}

// prefixKey is the oracle for the router-side prefix key: block 0 of the
// engine's prompt hashes, 0 when the prompt fills no block.
func prefixKey(msgs []ChatMessage) uint64 {
	if h := ChatPromptHashes(DefaultBlockSize, msgs); len(h) > 0 {
		return h[0]
	}
	return 0
}

func TestChatPrefixKeyMatchesPromptHashes(t *testing.T) {
	cases := [][]ChatMessage{
		{bigSystemPrompt()},
		{bigSystemPrompt(), {Role: "user", Content: "explain tiered KV caches in one paragraph"}},
		{bigSystemPrompt(), {Role: "user", Content: "hi"}, {Role: "assistant", Content: strings.Repeat("blocks ", 40)}},
		// The first block completes inside the second message.
		{{Role: "system", Content: strings.Repeat("s", 40)}, {Role: "user", Content: strings.Repeat("u", 200)}},
	}
	for i, msgs := range cases {
		hashes := ChatPromptHashes(DefaultBlockSize, msgs)
		if len(hashes) == 0 {
			t.Fatalf("case %d: prompt shorter than one block, pick a longer fixture", i)
		}
		body, err := json.Marshal(ChatRequest{Model: "scout", Messages: msgs})
		if err != nil {
			t.Fatal(err)
		}
		if got := ChatPrefixKeyRaw(DefaultBlockSize, body); got != hashes[0] {
			t.Errorf("case %d: ChatPrefixKeyRaw = %#x, want depth-0 hash %#x", i, got, hashes[0])
		}
	}
	// Prompts shorter than one block have no depth-0 block to route on.
	short := []ChatMessage{{Role: "user", Content: "hi"}}
	if len(ChatPromptHashes(DefaultBlockSize, short)) != 0 {
		t.Fatal("fixture unexpectedly fills a block")
	}
	body, _ := json.Marshal(ChatRequest{Messages: short})
	if got := ChatPrefixKeyRaw(DefaultBlockSize, body); got != 0 {
		t.Errorf("short prompt key = %#x, want 0", got)
	}
}

func TestChatPrefixKeyRawMatchesDecoded(t *testing.T) {
	reqs := []ChatRequest{
		{Model: "scout", Messages: []ChatMessage{bigSystemPrompt()}},
		{Model: "scout", Messages: []ChatMessage{bigSystemPrompt(), {Role: "user", Content: "what changed?"}},
			MaxTokens: 64, SessionID: "conv-1", Stream: true},
		{Model: "scout", Messages: []ChatMessage{{Role: "user", Content: "hi"}}},
	}
	for i, req := range reqs {
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		want := prefixKey(req.Messages)
		if got := ChatPrefixKeyRaw(DefaultBlockSize, body); got != want {
			t.Errorf("case %d: raw key %#x != decoded key %#x", i, got, want)
		}
	}
}

func TestChatPrefixKeyRawBailsOnHardInput(t *testing.T) {
	bodies := []string{
		``,
		`{}`,
		`{"model":"scout"}`,
		`{"messages":[]}`,
		`{"messages":`,
		`{"messages":[{"role":"system"`,
		// Escapes inside a string need a real JSON decoder; the scanner
		// must give up rather than hash the wrong bytes.
		`{"messages":[{"role":"system","content":"a \"quoted\" prompt ` + strings.Repeat("x", 600) + `"}]}`,
		// Non-string content (multimodal parts) is beyond the fast path.
		`{"messages":[{"role":"user","content":[{"type":"text","text":"hello"}]}]}`,
	}
	for i, body := range bodies {
		if got := ChatPrefixKeyRaw(DefaultBlockSize, []byte(body)); got != 0 {
			t.Errorf("case %d: got key %#x from unparseable body, want 0", i, got)
		}
	}
}

func BenchmarkChatPrefixKeyRaw(b *testing.B) {
	body, err := json.Marshal(ChatRequest{
		Model:     "scout",
		Messages:  []ChatMessage{bigSystemPrompt(), {Role: "user", Content: "summarize the last answer"}},
		SessionID: "conv-9",
	})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if ChatPrefixKeyRaw(DefaultBlockSize, body) == 0 {
			b.Fatal("key vanished")
		}
	}
}
