package sched

import (
	"encoding/json"
	"fmt"
	"testing"
)

// describeSeeds is the seed corpus of FuzzDescribe: bodies shaped like the
// ones clients send, then every way a body can leave the scanner's
// schema.
func describeSeeds() []string {
	client := `{"model":"meta-llama/Llama-3.1-8B-Instruct","messages":[{"role":"user","content":"benchmark request 7 the model generated this simulated completion"}],"max_tokens":64}`
	seeds := []string{
		client,
		`{"model":"chat","messages":[{"role":"system","content":"be brief"},{"role":"user","content":"interactive s3 t1 the model"},{"role":"assistant","content":"the model generated"}],"max_tokens":200,"stream":true}`,
		`{"model":"code","messages":[{"role":"user","content":"hi"}],"user":"alice","session_id":"conv-9","priority":"batch"}`,
		`{"model":"chat","session_id":"conversation-42","priority":"interactive","messages":[{"role":"user","content":"hi"}]}`,
		`{"model":"chat","prompt":"once upon a time","max_tokens":16}`,
		// Reordered keys, whitespace.
		`{"priority":"batch","user":"u","session_id":"s","model":"m"}`,
		" \t{ \"model\" : \"m\" ,\n\"user\" : \"u\" } \r\n",
		// Empty and null shapes.
		`{}`,
		`{"model":null,"session_id":null,"user":null,"priority":null}`,
		`{"messages":null,"stream":null}`,
		`{"model":""}`,
		// Duplicate keys.
		`{"model":"a","model":"b"}`,
		`{"session_id":"a","session_id":null}`,
		`{"messages":[],"messages":[{"role":"user"}],"model":"m"}`,
		// Case-variant and non-ASCII keys.
		`{"Model":"m"}`,
		`{"MODEL":"m","model":"n"}`,
		`{"Session_ID":"s"}`,
		"{\"ſession_id\":\"s\"}",
		"{\"uſer\":\"u\"}",
		"{\"model\":\"m\",\"K\":1}",
		`{"modèle":"m"}`,
		// Unknown fields of every shape.
		`{"model":"m","top_p":0.9,"n":1,"stop":["\n"],"logit_bias":{"50256":-100},"tools":[{"type":"function"}],"seed":null,"logprobs":false}`,
		`{"deep":[[[[[[[[[[[[[[[[[[[[{"a":[1]}]]]]]]]]]]]]]]]]]]],"model":"m"}`,
		`{"model":"m","messages":[{"role":"user","content":"esc \" \\ \/ \b \f \n \r \t é \ud800"}]}`,
		`{"model":"m","messages":[{"role":"user","content":[{"type":"text","text":"hi"}]}]}`,
		`{"ext":"bad \x","model":"m"}`,
		`{"ext":"bad \u12","model":"m"}`,
		`{"ext":[1,2,],"model":"m"}`,
		`{"ext":{"a":1,},"model":"m"}`,
		`{"ext":fals,"model":"m"}`,
		`{"ext":-1.25e-7,"ext2":0.5E+3,"ext3":-0,"model":"m"}`,
		`{"ext":1.,"model":"m"}`,
		`{"ext":-,"model":"m"}`,
		`{"ext":01,"model":"m"}`,
		`{"ext":1e,"model":"m"}`,
		"{\"ext\":\"ctl \x01\",\"model\":\"m\"}",
		"{\"ext\":\"bad \xff\",\"model\":\"m\"}",
		// Escapes and string contents of the attributes.
		`{"model":"a\"b"}`,
		`{"model":"chat"}`,
		`{"session_id":"line\nbreak"}`,
		"{\"model\":\"café  \"}",
		"{\"model\":\"bad \xff\"}",
		"{\"user\":\"bad \xfe\"}",
		"{\"model\":\"ctl \x01\"}",
		`{"priority":"vip"}`,
		`{"priority":"Batch"}`,
		`{"priority":"interactive"}`,
		// Wrong types for attributes.
		`{"model":5}`,
		`{"model":5,"session_id":"s"}`,
		`{"model":true}`,
		`{"session_id":{}}`,
		`{"user":["u"]}`,
		`{"priority":1}`,
		// Not an object, truncated, trailing data.
		``,
		`not json`,
		`null`,
		`[]`,
		`"chat"`,
		`5`,
		`{`,
		`{"model"`,
		`{"model":"m",}`,
		`{"model":"m"`,
		`{"model":"m"}x`,
		`{"model":"m"}{}`,
		`{"model":"m"} `,
		"\xef\xbb\xbf{}",
	}
	for _, cut := range []int{1, len(client) / 3, len(client) / 2, len(client) - 1} {
		seeds = append(seeds, client[:cut])
	}
	return seeds
}

// checkDescribe holds the scanner and Describe to json.Unmarshal into
// bodyAttrs: the scanner agrees with it or reports !ok, and Describe
// always returns what the decode implies, error included.
func checkDescribe(t *testing.T, body []byte) {
	var a bodyAttrs
	jerr := json.Unmarshal(body, &a)
	if s, ok := scanAttrs(body); ok {
		if jerr != nil {
			t.Fatalf("scanner accepted %q, which json.Unmarshal rejects: %v", body, jerr)
		}
		got := bodyAttrs{string(s.model), string(s.sessionID), string(s.user), string(s.priority)}
		if got != a {
			t.Fatalf("scanner read %q as %+v, json.Unmarshal as %+v", body, got, a)
		}
	}
	want := Request{Model: a.Model, SessionKey: a.SessionID, Class: ClassBatch}
	if want.SessionKey == "" {
		want.SessionKey = a.User
	}
	if c, err := ParseClass(a.Priority); err == nil {
		want.Class = c
	}
	r, err := Describe(nil, body)
	if (err == nil) != (jerr == nil) || err != nil && err.Error() != fmt.Sprintf("request body is not valid JSON (%v)", jerr) {
		t.Fatalf("Describe(%q) error %v, json.Unmarshal error %v", body, err, jerr)
	}
	if r != want {
		t.Fatalf("Describe(%q) = %+v, want %+v", body, r, want)
	}
}

func FuzzDescribe(f *testing.F) {
	for _, s := range describeSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(checkDescribe)
}

// TestDescribeScansClientBodies: the bodies clients send stay on the
// scanner's path.
func TestDescribeScansClientBodies(t *testing.T) {
	for _, s := range describeSeeds()[:7] {
		if _, ok := scanAttrs([]byte(s)); !ok {
			t.Errorf("%s fell off the fast path", s)
		}
	}
}
