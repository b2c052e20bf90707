package vllm

import "repro/jsonscan"

// Router-side prefix keys. The gateway's cache-aware picker needs the chain
// key of a request's *first* full prompt block — the same key block 0 of
// ChatPromptHashes would produce — to test against each replica's published
// prefix-membership sketch. Computing the full hash slice per pick would
// allocate on the hot path, so this folds the leading block's token stream
// into a one-key chain and stops there.

// ChatPrefixKeyRaw returns ChatPromptHashes(blockSize, messages)[0] straight
// from the raw JSON body of a chat-completions request, without
// unmarshalling — the replica-pick path holds a zero-allocation budget, so
// the gateway cannot afford a ChatRequest decode per request. Zero when the
// prompt is shorter than one block (no full block exists to match). It
// folds the role/content spans of the leading messages, as the engine's
// request scanner does, and stops once the first block is full; any shape
// the scanner hands to json.Unmarshal before that point — escapes in the
// strings, non-string message fields, an absent array — returns 0 (no
// prefix signal), never a wrong key.
func ChatPrefixKeyRaw(blockSize int, body []byte) uint64 {
	if blockSize <= 0 {
		return 0
	}
	var first [1]uint64
	c := newBlockChain(blockSize, first[:])
	// The walk ends as soon as the first block is full: returning false
	// from the message callback abandons the rest of the body.
	jsonscan.Object(body, 0, chatRequestFields, func(f, i int) (int, bool) {
		if f != 1 { // not messages
			return jsonscan.Value(body, i)
		}
		return scanMessages(body, i, func(role, content []byte) bool {
			c.message(fnvBytes(fnvBytes(fnvOffset64, role), content), estimateTokensBytes(content)+4)
			return !c.full()
		})
	})
	if c.full() {
		return first[0]
	}
	return 0
}

// fnvBytes is fnvString over a byte span (same separator round), so raw
// JSON spans hash identically to the decoded strings they contain.
func fnvBytes(h uint64, b []byte) uint64 {
	for i := 0; i < len(b); i++ {
		h ^= uint64(b[i])
		h *= fnvPrime64
	}
	h *= fnvPrime64 // separator round
	return h
}

// estimateTokensBytes mirrors EstimateTokens without a string conversion.
func estimateTokensBytes(b []byte) int {
	n := (len(b) + 3) / 4
	if n < 1 {
		n = 1
	}
	return n
}
