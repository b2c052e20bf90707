// Package jsonscan holds single-pass, allocation-free scanners over JSON
// text with a known schema. The request path uses them to read the few
// fields each hop acts on straight from the body bytes instead of
// decoding the whole document with encoding/json.
//
// Every scanner reports ok only for input whose meaning it can guarantee
// to equal json.Unmarshal's; on anything else — escape sequences, keys
// that encoding/json's case folding might bind elsewhere, repeated keys,
// numbers a Go int rejects, nesting beyond maxDepth — it reports !ok and
// the caller decodes with json.Unmarshal instead. Offsets are indices into
// the scanned slice; string results alias it.
package jsonscan

import "bytes"

// maxDepth bounds the nesting Value walks before handing the input back to
// encoding/json, which has its own (much deeper) limit.
const maxDepth = 64

// SkipSpace returns the index of the first non-whitespace byte at or after
// b[i].
func SkipSpace(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// End reports whether only whitespace follows b[i]: json.Unmarshal rejects
// trailing data.
func End(b []byte, i int) bool { return SkipSpace(b, i) == len(b) }

// String returns the span inside the string literal at b[i] and the index
// past its closing quote. Strings with escape sequences fail (unescaping
// would allocate), as do raw control bytes, which JSON does not allow in a
// string. The span is not checked for valid UTF-8: json.Unmarshal replaces
// invalid bytes with U+FFFD, so a caller that uses the text must check it.
func String(b []byte, i int) (s []byte, next int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return nil, 0, false
	}
	start := i + 1
	for j := start; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return b[start:j], j + 1, true
		case c == '\\' || c < 0x20:
			return nil, 0, false
		}
	}
	return nil, 0, false
}

// SkipNull consumes a null literal at b[i].
func SkipNull(b []byte, i int) (int, bool) {
	if hasLit(b, i, "null") {
		return i + 4, true
	}
	return i, false
}

// hasLit reports whether the literal lit starts at b[i].
func hasLit(b []byte, i int, lit string) bool {
	return i >= 0 && len(b)-i >= len(lit) && string(b[i:i+len(lit)]) == lit
}

// StringOrNull reads a value bound to a Go string field: null (the field
// keeps its zero value, reported as a nil span) or a string literal.
func StringOrNull(b []byte, i int) (s []byte, next int, ok bool) {
	if next, ok = SkipNull(b, i); ok {
		return nil, next, true
	}
	return String(b, i)
}

// IntOrNull reads a value bound to a Go int field: null (the field keeps
// its zero value) or an integer literal. Fractions, exponents and literals
// of more than 18 digits are reported !ok — json.Unmarshal rejects the
// first two and may overflow on the last.
func IntOrNull(b []byte, i int) (next, v int, ok bool) {
	if next, ok = SkipNull(b, i); ok {
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

// BoolOrNull reads a value bound to a Go bool field: null (false) or a
// true/false literal.
func BoolOrNull(b []byte, i int) (next int, v, ok bool) {
	if next, ok = SkipNull(b, i); ok {
		return next, false, true
	}
	switch {
	case hasLit(b, i, "true"):
		return i + 4, true, true
	case hasLit(b, i, "false"):
		return i + 5, false, true
	}
	return 0, false, false
}

// FloatOrNull reads a value bound to a Go float64 field: null or a number
// literal short enough, and without an exponent, that it cannot overflow
// a float64 (json.Unmarshal rejects the ones that do).
func FloatOrNull(b []byte, i int) (int, bool) {
	if next, ok := SkipNull(b, i); ok {
		return next, true
	}
	next, ok := number(b, i)
	if !ok || next-i > 24 || bytes.ContainsAny(b[i:next], "eE") {
		return 0, false
	}
	return next, true
}

// Value skips the JSON value at b[i] of any shape, validating it, and
// returns the index past it. It is for values the caller ignores, so its
// strings may hold escapes and invalid UTF-8 (json.Unmarshal accepts
// both); it reports !ok on invalid JSON and on nesting deeper than
// maxDepth.
func Value(b []byte, i int) (int, bool) { return value(b, i, 0) }

func value(b []byte, i, depth int) (int, bool) {
	if i >= len(b) {
		return 0, false
	}
	switch c := b[i]; {
	case c == '"':
		return skipString(b, i)
	case c == '{' || c == '[':
		if depth == maxDepth {
			return 0, false
		}
		if c == '[' {
			return Array(b, i, func(_, i int) (int, bool) { return value(b, i, depth+1) })
		}
		return Object(b, i, nil, func(_, i int) (int, bool) { return value(b, i, depth+1) })
	case c == '-' || (c >= '0' && c <= '9'):
		return number(b, i)
	}
	for _, lit := range [...]string{"true", "false", "null"} {
		if hasLit(b, i, lit) {
			return i + len(lit), true
		}
	}
	return 0, false
}

// skipString validates the string literal at b[i], escapes included.
func skipString(b []byte, i int) (int, bool) {
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return j + 1, true
		case c < 0x20:
			return 0, false
		case c == '\\':
			if j++; j >= len(b) {
				return 0, false
			}
			switch b[j] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if j+4 >= len(b) {
					return 0, false
				}
				for _, h := range b[j+1 : j+5] {
					if !isHex(h) {
						return 0, false
					}
				}
				j += 4
			default:
				return 0, false
			}
		}
	}
	return 0, false
}

func isHex(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'f' || c >= 'A' && c <= 'F'
}

// number validates the number literal at b[i] against JSON's grammar.
func number(b []byte, i int) (int, bool) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && b[i] >= '1' && b[i] <= '9':
		i = digits(b, i)
	default:
		return 0, false
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return 0, false
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return 0, false
		}
		i = j
	}
	return i, true
}

func digits(b []byte, i int) int {
	for i < len(b) && b[i] >= '0' && b[i] <= '9' {
		i++
	}
	return i
}

// Object walks the object at b[i] (after whitespace) and returns the index
// past it. member is called with each member's field index and the index
// of its value, and returns the index past the value.
//
// A key that names one of fields exactly may appear once. Any other key is
// passed as field -1 if encoding/json could not bind it to one of fields
// either — it is ASCII and not a case variant of a field name — and fails
// the scan otherwise: json.Unmarshal matches keys case-insensitively, and
// folds non-ASCII letters such as 'ſ' and 'K' (Kelvin) to ASCII ones.
func Object(b []byte, i int, fields []string, member func(f, i int) (int, bool)) (int, bool) {
	i = SkipSpace(b, i)
	if i >= len(b) || b[i] != '{' {
		return 0, false
	}
	if i = SkipSpace(b, i+1); i < len(b) && b[i] == '}' {
		return i + 1, true
	}
	seen := uint64(0)
	for {
		key, j, ok := String(b, i)
		if !ok {
			return 0, false
		}
		f := field(key, fields)
		if f < -1 || f >= 0 && seen&(1<<f) != 0 {
			return 0, false
		}
		if f >= 0 {
			seen |= 1 << f
		}
		if j = SkipSpace(b, j); j >= len(b) || b[j] != ':' {
			return 0, false
		}
		if i, ok = member(f, SkipSpace(b, j+1)); !ok {
			return 0, false
		}
		if i = SkipSpace(b, i); i >= len(b) {
			return 0, false
		}
		switch b[i] {
		case ',':
			i = SkipSpace(b, i+1)
		case '}':
			return i + 1, true
		default:
			return 0, false
		}
	}
}

// field returns the index of the field key names exactly, -1 for a key no
// field could bind, and -2 for a key encoding/json might bind by folding.
// An object without fields is one whose members are all ignored.
func field(key []byte, fields []string) int {
	if len(fields) == 0 {
		return -1
	}
	for f, name := range fields {
		if string(key) == name {
			return f
		}
	}
	for _, c := range key {
		if c >= 0x80 {
			return -2
		}
	}
	for _, name := range fields {
		if asciiEqualFold(key, name) {
			return -2
		}
	}
	return -1
}

func asciiEqualFold(key []byte, name string) bool {
	if len(key) != len(name) {
		return false
	}
	for i := range key {
		a, b := key[i], name[i]
		if 'A' <= a && a <= 'Z' {
			a += 'a' - 'A'
		}
		if 'A' <= b && b <= 'Z' {
			b += 'a' - 'A'
		}
		if a != b {
			return false
		}
	}
	return true
}

// Array walks the array at b[i] and returns the index past it, calling elem
// with each element's position and index.
func Array(b []byte, i int, elem func(n, i int) (int, bool)) (int, bool) {
	if i >= len(b) || b[i] != '[' {
		return 0, false
	}
	if i = SkipSpace(b, i+1); i < len(b) && b[i] == ']' {
		return i + 1, true
	}
	for n := 0; ; n++ {
		var ok bool
		if i, ok = elem(n, i); !ok {
			return 0, false
		}
		if i = SkipSpace(b, i); i >= len(b) {
			return 0, false
		}
		switch b[i] {
		case ',':
			i = SkipSpace(b, i+1)
		case ']':
			return i + 1, true
		default:
			return 0, false
		}
	}
}
