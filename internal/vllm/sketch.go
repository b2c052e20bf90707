package vllm

import "bytes"

// Router-side prefix keys. The gateway's cache-aware picker needs the chain
// key of a request's *first* full prompt block — the same key block 0 of
// ChatPromptHashes would produce — to test against each replica's published
// prefix-membership sketch. Computing the full hash slice per pick would
// allocate on the hot path, so these fold the leading block's token stream
// directly into a single uint64.

// ChatPrefixKey returns the chain key of the first full prompt block for a
// chat prompt, identical to ChatPromptHashes(blockSize, msgs)[0]. Zero when
// the prompt is shorter than one block (no full block exists to match).
func ChatPrefixKey(blockSize int, msgs []ChatMessage) uint64 {
	if blockSize <= 0 {
		return 0
	}
	h := uint64(fnvOffset64)
	left := blockSize
	for _, m := range msgs {
		base := fnvString(fnvString(fnvOffset64, m.Role), m.Content)
		h, left = foldTokens(h, base, EstimateTokens(m.Content)+4, left)
		if left == 0 {
			return h
		}
	}
	return 0
}

// foldTokens folds up to left of the message's n positional token hashes
// into the chain key h, returning the updated key and remaining count.
func foldTokens(h, base uint64, n, left int) (uint64, int) {
	for j := 0; j < n && left > 0; j++ {
		h = fnvUint(h, fnvUint(base, uint64(j)))
		left--
	}
	return h, left
}

// ChatPrefixKeyRaw computes ChatPrefixKey straight from the raw JSON body
// of a chat-completions request, without unmarshalling — the replica-pick
// path holds a zero-allocation budget, so the gateway cannot afford a
// ChatRequest decode per request. The scanner walks the "messages" array
// extracting role/content byte spans in place; any shape it does not
// recognize — escape sequences in the strings, non-string message fields,
// absent array — returns 0 (no prefix signal), never a wrong key.
func ChatPrefixKeyRaw(blockSize int, body []byte) uint64 {
	if blockSize <= 0 {
		return 0
	}
	i := bytes.Index(body, msgsToken)
	if i < 0 {
		return 0
	}
	i += len(msgsToken)
	i = skipSpace(body, i)
	if i >= len(body) || body[i] != ':' {
		return 0
	}
	i = skipSpace(body, i+1)
	if i >= len(body) || body[i] != '[' {
		return 0
	}
	i++
	h := uint64(fnvOffset64)
	left := blockSize
	for {
		i = skipSpace(body, i)
		if i >= len(body) {
			return 0
		}
		if body[i] == ']' {
			return 0 // array ended before a full block accumulated
		}
		var role, content []byte
		var ok bool
		role, content, i, ok = scanMessage(body, i)
		if !ok {
			return 0
		}
		base := fnvBytes(fnvBytes(fnvOffset64, role), content)
		h, left = foldTokens(h, base, estimateTokensBytes(content)+4, left)
		if left == 0 {
			return h
		}
		i = skipSpace(body, i)
		if i >= len(body) {
			return 0
		}
		switch body[i] {
		case ',':
			i++
		case ']':
			return 0
		default:
			return 0
		}
	}
}

var msgsToken = []byte(`"messages"`)

// scanMessage parses one {"role": "...", "content": "...", ...} object
// starting at body[i] (which must be '{'), returning the role and content
// spans and the index just past the closing '}'. ok is false on any shape
// the scanner cannot handle without allocating.
func scanMessage(body []byte, i int) (role, content []byte, next int, ok bool) {
	if body[i] != '{' {
		return nil, nil, 0, false
	}
	i++
	for {
		i = skipSpace(body, i)
		if i >= len(body) {
			return nil, nil, 0, false
		}
		if body[i] == '}' {
			return role, content, i + 1, true
		}
		key, j, kok := scanString(body, i)
		if !kok {
			return nil, nil, 0, false
		}
		i = skipSpace(body, j)
		if i >= len(body) || body[i] != ':' {
			return nil, nil, 0, false
		}
		i = skipSpace(body, i+1)
		if i >= len(body) || body[i] != '"' {
			// Non-string message field (nested content parts, numbers):
			// out of scope for the fast path.
			return nil, nil, 0, false
		}
		val, j2, vok := scanString(body, i)
		if !vok {
			return nil, nil, 0, false
		}
		switch {
		case bytes.Equal(key, roleToken):
			role = val
		case bytes.Equal(key, contentToken):
			content = val
		}
		i = skipSpace(body, j2)
		if i >= len(body) {
			return nil, nil, 0, false
		}
		switch body[i] {
		case ',':
			i++
		case '}':
			return role, content, i + 1, true
		default:
			return nil, nil, 0, false
		}
	}
}

var (
	roleToken    = []byte("role")
	contentToken = []byte("content")
)

// scanString returns the span inside a JSON string literal starting at
// body[i] == '"' and the index past the closing quote. Strings containing
// escape sequences fail (unescaping would allocate; callers fall back to
// a real decoder or no signal, and the simulation emits none), as do raw
// control characters, which JSON does not allow in a string.
func scanString(body []byte, i int) (s []byte, next int, ok bool) {
	if i >= len(body) || body[i] != '"' {
		return nil, 0, false
	}
	start := i + 1
	for j := start; j < len(body); j++ {
		switch c := body[j]; {
		case c == '"':
			return body[start:j], j + 1, true
		case c == '\\' || c < 0x20:
			return nil, 0, false
		}
	}
	return nil, 0, false
}

func skipSpace(body []byte, i int) int {
	for i < len(body) {
		switch body[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
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
