package jsonscan

import (
	"encoding/json"
	"strings"
	"testing"
)

// checkValue holds Value to json.Valid: whatever it accepts as a whole
// document, encoding/json accepts too.
func checkValue(t *testing.T, b []byte) {
	if i, ok := Value(b, SkipSpace(b, 0)); ok && End(b, i) && !json.Valid(b) {
		t.Fatalf("Value accepted %q, which encoding/json rejects", b)
	}
}

func FuzzValue(f *testing.F) {
	for _, s := range []string{
		`{"a":[1,-2.5e+3,true,false,null,"s\"\\\/\b\f\n\r\té"],"b":{}}`,
		`[]`, `{}`, `""`, `0`, `-0`, `1.`, `.5`, `01`, `1e`, `1e+`, `-`, `tru`, `nul`,
		`"\x"`, `"\u12"`, `"\u12g4"`, "\"\x01\"", "\"\xff\"", `[1,]`, `{"a":1,}`, `{"a"}`, `{1:2}`,
		`[` + strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth+1),
		` {"a" : [ 1 , 2 ] } `, `{"a":1}x`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(checkValue)
}

func TestValueDepthLimit(t *testing.T) {
	deep := strings.Repeat("[", maxDepth+1) + strings.Repeat("]", maxDepth+1)
	if _, ok := Value([]byte(deep), 0); ok {
		t.Errorf("Value walked %d levels; its limit is %d", maxDepth+1, maxDepth)
	}
	ok := strings.Repeat("[", maxDepth) + strings.Repeat("]", maxDepth)
	if i, fine := Value([]byte(ok), 0); !fine || i != len(ok) {
		t.Errorf("Value stopped short of %d levels", maxDepth)
	}
}

// TestObjectKeyBinding pins which keys Object binds, passes on as unknown,
// and refuses because encoding/json might bind them to a field by folding.
func TestObjectKeyBinding(t *testing.T) {
	fields := []string{"model", "stream"}
	for _, c := range []struct {
		key  string
		want int
	}{
		{"model", 0},
		{"stream", 1},
		{"messages", -1},
		{"models", -1},
		{"Model", -2},
		{"STREAM", -2},
		{"ſtream", -2}, // 'ſ' folds to 's'
		{"mødel", -2},  // non-ASCII: refused without folding
	} {
		body := `{"` + c.key + `":null}`
		got := -3
		_, ok := Object([]byte(body), 0, fields, func(f, i int) (int, bool) {
			got = f
			return SkipNull([]byte(body), i)
		})
		if c.want == -2 {
			if ok {
				t.Errorf("key %q bound as field %d; want a refusal", c.key, got)
			}
			continue
		}
		if !ok || got != c.want {
			t.Errorf("key %q: field %d ok %v, want field %d", c.key, got, ok, c.want)
		}
	}
	// Exactly named fields may not repeat; unknown keys may.
	if _, ok := Object([]byte(`{"model":null,"model":null}`), 0, fields, func(_, i int) (int, bool) {
		return Value([]byte(`{"model":null,"model":null}`), i)
	}); ok {
		t.Error("repeated field accepted")
	}
	body := []byte(`{"x":1,"x":2}`)
	if _, ok := Object(body, 0, fields, func(_, i int) (int, bool) { return Value(body, i) }); !ok {
		t.Error("repeated unknown key refused")
	}
}
