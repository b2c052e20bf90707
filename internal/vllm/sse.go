package vllm

import (
	"bytes"
	"encoding/json"
	"slices"
	"strconv"
	"unicode/utf8"
)

// The SSE token path. Every streamed token is one chat.completion.chunk
// event, so the per-token cost of building and reading those events is the
// streaming data plane's cost. Both ends skip reflection:
//
//   - The encoder appends each event into one buffer. Its output is
//     byte-identical to json.Marshal of the equivalent ChatChunk plus the
//     SSE framing — the simulated network charges every chunk's byte
//     length at every hop, so different bytes would mean different
//     virtual time.
//   - The decoder scans a payload in place for the three things a
//     streaming client reads: the first choice's delta content, whether
//     usage is present, and the usage counts. It allocates nothing; any
//     input it cannot match json.Unmarshal on exactly, it hands to
//     json.Unmarshal.

// SSEData is the line prefix framing every server-sent event.
const SSEData = "data: "

// SSEDone is the stream terminator event.
const SSEDone = SSEData + "[DONE]\n\n"

const sseEnd = "\n\n"

// ParseSSE splits a raw SSE event back into its data payload, reporting
// whether the event carried one. The payload aliases raw. Real chunks
// always carry exactly one data line.
func ParseSSE(raw []byte) (payload []byte, ok bool) {
	raw = bytes.TrimSuffix(raw, []byte(sseEnd))
	if !bytes.HasPrefix(raw, []byte(SSEData)) {
		return nil, false
	}
	return raw[len(SSEData):], true
}

// appendChunkHead appends the part of a chunk event that is the same for
// every chunk of one stream: the framing, id, object, model and the open
// delta of choice 0.
func appendChunkHead(dst []byte, id, model string) []byte {
	dst = append(dst, SSEData+`{"id":`...)
	dst = appendJSONString(dst, id)
	dst = append(dst, `,"object":"chat.completion.chunk","model":`...)
	dst = appendJSONString(dst, model)
	return append(dst, `,"choices":[{"index":0,"delta":{`...)
}

// appendChunk appends one whole chunk event: the stream's head, then the
// delta, finish reason and usage, each omitted when empty exactly as the
// ChatChunk field tags omit them.
func appendChunk(dst, head []byte, d ChatDelta, finish string, u *Usage) []byte {
	dst = append(dst, head...)
	if d.Role != "" {
		dst = append(dst, `"role":`...)
		dst = appendJSONString(dst, d.Role)
	}
	if d.Content != "" {
		if d.Role != "" {
			dst = append(dst, ',')
		}
		dst = append(dst, `"content":`...)
		dst = appendJSONString(dst, d.Content)
	}
	dst = append(dst, '}')
	if finish != "" {
		dst = append(dst, `,"finish_reason":`...)
		dst = appendJSONString(dst, finish)
	}
	dst = append(dst, "}]"...)
	if u != nil {
		dst = append(dst, `,"usage":{"prompt_tokens":`...)
		dst = strconv.AppendInt(dst, int64(u.PromptTokens), 10)
		dst = append(dst, `,"completion_tokens":`...)
		dst = strconv.AppendInt(dst, int64(u.CompletionTokens), 10)
		dst = append(dst, `,"total_tokens":`...)
		dst = strconv.AppendInt(dst, int64(u.TotalTokens), 10)
		dst = append(dst, '}')
	}
	return append(dst, "}"+sseEnd...)
}

// tokenChunk encodes one token's chunk into a buffer sized to hold it, so
// the pushed event is the only allocation (strings that need escaping may
// grow it).
func tokenChunk(head []byte, d ChatDelta) []byte {
	const fixed = len(`"role":"","content":""}}]}` + sseEnd)
	return appendChunk(make([]byte, 0, len(head)+len(d.Role)+len(d.Content)+fixed), head, d, "", nil)
}

// appendJSONString appends s as encoding/json writes it. Printable ASCII
// other than the characters it escapes (`"`, `\`, and the HTML-sensitive
// `<`, `>`, `&`) is copied raw; anything else is left to json.Marshal.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			b, _ := json.Marshal(s)
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// ChunkDelta is what a streaming client reads from one chat.completion.chunk:
// the first choice's delta content and the usage accounting, if present.
type ChunkDelta struct {
	// Content is the first choice's delta content; empty for role-only,
	// finish and usage-only chunks. From the scanner it aliases the payload.
	Content  []byte
	HasUsage bool
	Usage    Usage
}

// DecodeChatChunk reads one SSE payload of a streamed chat completion. The
// raw scanner handles the server's own chunks without allocating; any
// other input is decoded by json.Unmarshal into a ChatChunk, so the result
// is always what json.Unmarshal would give, and the error is its error.
func DecodeChatChunk(payload []byte) (ChunkDelta, error) {
	if d, ok := scanChatChunk(payload); ok {
		return d, nil
	}
	var c ChatChunk
	if err := json.Unmarshal(payload, &c); err != nil {
		return ChunkDelta{}, err
	}
	var d ChunkDelta
	if len(c.Choices) > 0 && c.Choices[0].Delta.Content != "" {
		d.Content = []byte(c.Choices[0].Delta.Content)
	}
	if c.Usage != nil {
		d.HasUsage, d.Usage = true, *c.Usage
	}
	return d, nil
}

// Field sets of the objects the scanner descends into, by field index.
var (
	chunkFields  = []string{"id", "object", "model", "choices", "usage"}
	choiceFields = []string{"index", "delta", "finish_reason"}
	deltaFields  = []string{"role", "content"}
	usageFields  = []string{"prompt_tokens", "completion_tokens", "total_tokens"}
)

// scanChatChunk is the allocation-free fast path of DecodeChatChunk. ok is
// true only when the payload is valid JSON that json.Unmarshal would decode
// into a ChatChunk without error, and the result then equals its decode.
// It reports !ok on any key that is not exactly a ChatChunk field name
// (json.Unmarshal would bind a case variant such as "Usage" to a field),
// a repeated key (json.Unmarshal merges repeats into one field), escape
// sequences, numbers a Go int field would reject, and any other shape
// outside the ChatChunk schema.
func scanChatChunk(b []byte) (d ChunkDelta, ok bool) {
	i, ok := scanObject(b, 0, chunkFields, func(f, i int) (int, bool) {
		switch f {
		case 3: // choices
			if next, null := skipNull(b, i); null {
				return next, true
			}
			return scanArray(b, i, func(n, i int) (int, bool) {
				if n == 0 {
					return scanChoice(b, i, &d.Content)
				}
				var rest []byte
				return scanChoice(b, i, &rest)
			})
		case 4: // usage
			if next, null := skipNull(b, i); null {
				return next, true
			}
			d.HasUsage = true
			counts := [...]*int{&d.Usage.PromptTokens, &d.Usage.CompletionTokens, &d.Usage.TotalTokens}
			return scanObject(b, i, usageFields, func(f, i int) (next int, ok bool) {
				next, *counts[f], ok = scanIntOrNull(b, i)
				return next, ok
			})
		}
		return skipStringOrNull(b, i) // id, object, model
	})
	if !ok || skipSpace(b, i) != len(b) {
		return ChunkDelta{}, false
	}
	return d, true
}

// scanChoice scans one choice object into its delta content.
func scanChoice(b []byte, i int, content *[]byte) (int, bool) {
	return scanObject(b, i, choiceFields, func(f, i int) (int, bool) {
		switch f {
		case 0: // index
			next, _, ok := scanIntOrNull(b, i)
			return next, ok
		case 1: // delta
			if next, null := skipNull(b, i); null {
				return next, true
			}
			return scanObject(b, i, deltaFields, func(f, i int) (int, bool) {
				if _, null := skipNull(b, i); f == 0 || null { // role, or a null content
					return skipStringOrNull(b, i)
				}
				s, next, ok := scanString(b, i)
				*content = s
				// json.Unmarshal replaces invalid UTF-8 with U+FFFD, so
				// only valid text may be handed out as-is.
				return next, ok && utf8.Valid(s)
			})
		}
		return skipStringOrNull(b, i) // finish_reason
	})
}

// scanObject walks the object at b[i] (after whitespace) and returns the
// index past it. Every key must name one of fields exactly, at most once;
// member is called with the field's index and the index of its value, and
// returns the index past the value.
func scanObject(b []byte, i int, fields []string, member func(f, i int) (int, bool)) (int, bool) {
	i = skipSpace(b, i)
	if i >= len(b) || b[i] != '{' {
		return 0, false
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == '}' {
		return i + 1, true
	}
	seen := 0
	for {
		key, j, ok := scanString(b, i)
		if !ok {
			return 0, false
		}
		f := slices.Index(fields, string(key))
		if f < 0 || seen&(1<<f) != 0 {
			return 0, false
		}
		seen |= 1 << f
		if j = skipSpace(b, j); j >= len(b) || b[j] != ':' {
			return 0, false
		}
		if i, ok = member(f, skipSpace(b, j+1)); !ok {
			return 0, false
		}
		if i = skipSpace(b, i); i >= len(b) {
			return 0, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case '}':
			return i + 1, true
		default:
			return 0, false
		}
	}
}

// scanArray walks the array at b[i] and returns the index past it, calling
// elem with each element's position and index.
func scanArray(b []byte, i int, elem func(n, i int) (int, bool)) (int, bool) {
	if i >= len(b) || b[i] != '[' {
		return 0, false
	}
	if i = skipSpace(b, i+1); i < len(b) && b[i] == ']' {
		return i + 1, true
	}
	for n := 0; ; n++ {
		var ok bool
		if i, ok = elem(n, i); !ok {
			return 0, false
		}
		if i = skipSpace(b, i); i >= len(b) {
			return 0, false
		}
		switch b[i] {
		case ',':
			i = skipSpace(b, i+1)
		case ']':
			return i + 1, true
		default:
			return 0, false
		}
	}
}

// skipNull consumes a null literal at b[i].
func skipNull(b []byte, i int) (int, bool) {
	if bytes.HasPrefix(b[i:], []byte("null")) {
		return i + 4, true
	}
	return i, false
}

func skipStringOrNull(b []byte, i int) (int, bool) {
	if next, ok := skipNull(b, i); ok {
		return next, true
	}
	_, next, ok := scanString(b, i)
	return next, ok
}

// scanIntOrNull reads a value bound to a Go int field: null (the field
// keeps its zero value) or an integer literal. Fractions, exponents and
// literals of more than 18 digits are reported !ok — json.Unmarshal
// rejects the first two and may overflow on the last.
func scanIntOrNull(b []byte, i int) (next, v int, ok bool) {
	if next, ok = skipNull(b, i); ok {
		return next, 0, true
	}
	j, neg := i, false
	if j < len(b) && b[j] == '-' {
		neg = true
		j++
	}
	start := j
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		v = v*10 + int(b[j]-'0')
		j++
	}
	digits := j - start
	if digits == 0 || digits > 18 || (digits > 1 && b[start] == '0') {
		return 0, 0, false
	}
	if j < len(b) && (b[j] == '.' || b[j] == 'e' || b[j] == 'E') {
		return 0, 0, false
	}
	if neg {
		v = -v
	}
	return j, v, true
}
