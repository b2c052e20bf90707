package vllm

import (
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"repro/jsonscan"
)

// The chat request path. One chat completion crosses the client encode,
// the front door's attribute scan (sched.Describe), the engine's request
// decode, the engine's buffered-reply encode and the client's reply
// decode; none of them uses reflection on the common path:
//
//   - The encoders append into one buffer sized up front. Their output is
//     byte-identical to json.Marshal of the same value, because the
//     simulated network charges every body's byte length at every hop.
//   - The decoders scan the body once, in place and without allocating
//     beyond their results. Any input they cannot match json.Unmarshal on
//     exactly (see jsonscan) they hand to json.Unmarshal, so every
//     decoder's answer, error included, is json.Unmarshal's.

// EncodeChatRequest returns the body json.Marshal(r) gives. A non-zero
// temperature is left to json.Marshal, whose float formatting the
// simulation never needs.
func EncodeChatRequest(r ChatRequest) []byte {
	if r.Temperature != 0 {
		body, _ := json.Marshal(r)
		return body
	}
	size := len(`{"model":"","messages":null,"max_tokens":,"user":"","session_id":"","priority":"","stream":true}`) +
		len(r.Model) + decLen(r.MaxTokens) + len(r.User) + len(r.SessionID) + len(r.Priority)
	for _, m := range r.Messages {
		size += len(`{"role":"","content":""},`) + len(m.Role) + len(m.Content)
	}
	b := make([]byte, 0, size)
	b = append(b, `{"model":`...)
	b = appendJSONString(b, r.Model)
	b = append(b, `,"messages":`...)
	if r.Messages == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for k, m := range r.Messages {
			if k > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"role":`...)
			b = appendJSONString(b, m.Role)
			b = append(b, `,"content":`...)
			b = appendJSONString(b, m.Content)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	if r.MaxTokens != 0 {
		b = append(b, `,"max_tokens":`...)
		b = strconv.AppendInt(b, int64(r.MaxTokens), 10)
	}
	for _, f := range [...]struct{ key, v string }{
		{`,"user":`, r.User}, {`,"session_id":`, r.SessionID}, {`,"priority":`, r.Priority},
	} {
		if f.v != "" {
			b = append(b, f.key...)
			b = appendJSONString(b, f.v)
		}
	}
	if r.Stream {
		b = append(b, `,"stream":true`...)
	}
	return append(b, '}')
}

// decLen is the length of n in decimal.
func decLen(n int) int {
	l := 1
	if n < 0 {
		l++
	}
	for n <= -10 || n >= 10 {
		n /= 10
		l++
	}
	return l
}

// ChatCall is what the API server acts on in a chat-completions request.
type ChatCall struct {
	// Model is the requested model name. From the scanner it aliases the
	// body.
	Model     []byte
	MaxTokens int
	// Priority is the body's priority class name.
	Priority string
	Stream   bool
	// Prompt is the prompt's token charge: EstimateTokens(content) plus
	// the per-message template overhead, over every message.
	Prompt int
	// Hashes are ChatPromptHashes(blockSize, messages).
	Hashes []uint64
}

// DecodeChatRequest reads a chat-completions request body. The scanner
// takes the message role/content spans straight from the body, so no
// message string is built: it counts prompt tokens and folds the prefix
// block keys from the spans, allocating only the key slice. Any other
// input is decoded by json.Unmarshal into a ChatRequest, so the result is
// always what that decode implies, and the error is its error.
func DecodeChatRequest(body []byte, blockSize int) (ChatCall, error) {
	if c, ok := scanChatRequest(body, blockSize); ok {
		return c, nil
	}
	var cr ChatRequest
	if err := json.Unmarshal(body, &cr); err != nil {
		return ChatCall{}, err
	}
	c := ChatCall{
		Model: []byte(cr.Model), MaxTokens: cr.MaxTokens, Priority: cr.Priority, Stream: cr.Stream,
		Hashes: ChatPromptHashes(blockSize, cr.Messages),
	}
	for _, m := range cr.Messages {
		c.Prompt += messageTokens(m.Content)
	}
	return c, nil
}

// Field sets of the request objects the scanners descend into.
var (
	chatRequestFields = []string{"model", "messages", "max_tokens", "temperature", "user", "session_id", "priority", "stream"}
	messageFields     = []string{"role", "content"}
)

// scanChatRequest is the fast path of DecodeChatRequest: ok only when
// json.Unmarshal would decode body into a ChatRequest without error, with
// the same result. The first pass validates the body and counts prompt
// tokens, which sizes the key slice the second pass folds into.
func scanChatRequest(b []byte, blockSize int) (c ChatCall, ok bool) {
	msgs := -1
	i, ok := jsonscan.Object(b, 0, chatRequestFields, func(f, i int) (next int, ok bool) {
		var s []byte
		switch f {
		case 0: // model
			c.Model, next, ok = jsonscan.StringOrNull(b, i)
			return next, ok && utf8.Valid(c.Model)
		case 1: // messages
			if next, null := jsonscan.SkipNull(b, i); null {
				return next, true
			}
			msgs = i
			return scanMessages(b, i, func(_, content []byte) bool {
				c.Prompt += estimateTokensBytes(content) + 4
				return true
			})
		case 2:
			next, c.MaxTokens, ok = jsonscan.IntOrNull(b, i)
			return next, ok
		case 3:
			return jsonscan.FloatOrNull(b, i)
		case 4, 5: // user, session_id: validated, unused here
			_, next, ok = jsonscan.StringOrNull(b, i)
			return next, ok
		case 6: // priority
			s, next, ok = jsonscan.StringOrNull(b, i)
			c.Priority = className(s)
			return next, ok && utf8.Valid(s)
		case 7:
			next, c.Stream, ok = jsonscan.BoolOrNull(b, i)
			return next, ok
		}
		return jsonscan.Value(b, i)
	})
	if !ok || !jsonscan.End(b, i) {
		return ChatCall{}, false
	}
	if blockSize > 0 {
		chain := newBlockChain(blockSize, make([]uint64, c.Prompt/blockSize))
		if msgs >= 0 && !chain.full() {
			scanMessages(b, msgs, func(role, content []byte) bool {
				chain.message(fnvBytes(fnvBytes(fnvOffset64, role), content), estimateTokensBytes(content)+4)
				return !chain.full()
			})
		}
		c.Hashes = chain.done()
	}
	return c, true
}

// scanMessages walks a messages array, calling each with every message's
// role and content spans (nil for null or absent) until each returns
// false, which fails the scan. Both spans are hashed, so they must be
// valid UTF-8: json.Unmarshal would replace invalid bytes.
func scanMessages(b []byte, i int, each func(role, content []byte) bool) (int, bool) {
	return jsonscan.Array(b, i, func(_, i int) (int, bool) {
		var spans [2][]byte
		next, ok := jsonscan.Object(b, i, messageFields, func(f, i int) (next int, ok bool) {
			if f < 0 {
				return jsonscan.Value(b, i)
			}
			spans[f], next, ok = jsonscan.StringOrNull(b, i)
			return next, ok && utf8.Valid(spans[f])
		})
		return next, ok && each(spans[0], spans[1])
	})
}

// className returns a class name from the body without allocating for
// the names the scheduler knows.
func className(s []byte) string {
	switch string(s) {
	case "":
		return ""
	case classBatch:
		return classBatch
	case "interactive":
		return "interactive"
	}
	return string(s)
}

// chatResponseBody returns the body json.Marshal gives for the buffered
// reply to a chat completion: one assistant choice whose content is the
// synthesized text of the generated tokens, written straight into a body
// sized to hold it.
func chatResponseBody(id, model string, prompt, generated int) []byte {
	const (
		open   = `{"id":"chatcmpl-`
		object = `","object":"chat.completion","model":`
		choice = `,"choices":[{"index":0,"message":{"role":"assistant","content":"`
		usage  = `"},"finish_reason":"stop"}],"usage":{"prompt_tokens":`
		outTok = `,"completion_tokens":`
		total  = `,"total_tokens":`
	)
	text := generated * 4
	b := make([]byte, 0, len(open+object+choice+usage+outTok+total+`""}}`)+len(id)+len(model)+
		text+decLen(prompt)+decLen(generated)+decLen(prompt+generated))
	b = append(b, open...)
	b = appendJSONStringBody(b, id)
	b = append(b, object...)
	b = appendJSONString(b, model)
	b = append(b, choice...)
	b = appendSynth(b, 0, text)
	b = append(b, usage...)
	b = strconv.AppendInt(b, int64(prompt), 10)
	b = append(b, outTok...)
	b = strconv.AppendInt(b, int64(generated), 10)
	b = append(b, total...)
	b = strconv.AppendInt(b, int64(prompt+generated), 10)
	return append(b, "}}"...)
}

// DecodeChatUsage reads the usage accounting of a buffered chat completion
// body. The scanner validates the whole ChatResponse but keeps only its
// usage, allocating nothing; any other input is decoded by json.Unmarshal
// into a ChatResponse, so the result is always its Usage, and the error
// is its error.
func DecodeChatUsage(body []byte) (Usage, error) {
	if u, ok := scanChatUsage(body); ok {
		return u, nil
	}
	var cr ChatResponse
	err := json.Unmarshal(body, &cr)
	return cr.Usage, err
}

// Field sets of the response objects the usage scanner descends into.
var (
	responseFields = []string{"id", "object", "model", "choices", "usage"}
	replyFields    = []string{"index", "message", "finish_reason"}
)

// scanChatUsage is the fast path of DecodeChatUsage: ok only when
// json.Unmarshal would decode body into a ChatResponse without error, with
// the same usage.
func scanChatUsage(b []byte) (u Usage, ok bool) {
	i, ok := jsonscan.Object(b, 0, responseFields, func(f, i int) (int, bool) {
		switch f {
		case -1:
			return jsonscan.Value(b, i)
		case 3: // choices
			if next, null := jsonscan.SkipNull(b, i); null {
				return next, true
			}
			return jsonscan.Array(b, i, func(_, i int) (int, bool) { return skipReply(b, i) })
		case 4: // usage
			if next, null := jsonscan.SkipNull(b, i); null {
				return next, true
			}
			counts := [...]*int{&u.PromptTokens, &u.CompletionTokens, &u.TotalTokens}
			return jsonscan.Object(b, i, usageFields, func(f, i int) (next int, ok bool) {
				if f < 0 {
					return jsonscan.Value(b, i)
				}
				next, *counts[f], ok = jsonscan.IntOrNull(b, i)
				return next, ok
			})
		}
		_, next, ok := jsonscan.StringOrNull(b, i) // id, object, model
		return next, ok
	})
	if !ok || !jsonscan.End(b, i) {
		return Usage{}, false
	}
	return u, true
}

// skipReply validates one ChatChoice (or null) against its Go types.
func skipReply(b []byte, i int) (int, bool) {
	if next, null := jsonscan.SkipNull(b, i); null {
		return next, true
	}
	return jsonscan.Object(b, i, replyFields, func(f, i int) (int, bool) {
		switch f {
		case -1:
			return jsonscan.Value(b, i)
		case 0: // index
			next, _, ok := jsonscan.IntOrNull(b, i)
			return next, ok
		case 1: // message
			if next, null := jsonscan.SkipNull(b, i); null {
				return next, true
			}
			return jsonscan.Object(b, i, messageFields, func(f, i int) (int, bool) {
				if f < 0 {
					return jsonscan.Value(b, i)
				}
				_, next, ok := jsonscan.StringOrNull(b, i)
				return next, ok
			})
		}
		_, next, ok := jsonscan.StringOrNull(b, i) // finish_reason
		return next, ok
	})
}
