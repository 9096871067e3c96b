package jobspec

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzSpecParse drives arbitrary bytes through Parse, the decoder every
// POST /v1/jobs body and -spec file goes through. Parse must never panic,
// and an accepted spec must re-marshal and re-parse to the same
// fingerprint: the ledger chains run history on that identity.
func FuzzSpecParse(f *testing.F) {
	for _, seed := range []string{
		`{"v":1,"kind":"compile","compile":{"circuit":"s27","lk":3},"output":{"metrics":true}}`,
		`{"v":1,"kind":"sweep","timeout":"10m","sweep":{"circuits":["s27","s510"],"lks":[8],"workers":4,"job_timeout":"90s","shard":{"index":1,"count":2}},"output":{"format":"json","no_timing":true}}`,
		`{"v":1,"kind":"cover","cover":{"circuit":"s510","lk":8,"max_patterns":4096,"no_collapse":true,"lanes":2},"output":{"undetected":true}}`,
		`{"v":1,"kind":"sweep","sweep":{"jobs":[{"circuit":"s27","lk":3,"seed":2}]}}`,
		`{"v":1,"kind":"compile"}`,
		`{}`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		s, err := Parse(bytes.NewReader(body))
		if err != nil {
			return
		}
		blob, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("accepted spec does not marshal: %v", err)
		}
		again, err := Parse(bytes.NewReader(blob))
		if err != nil {
			t.Fatalf("re-marshalled spec rejected: %v\n%s", err, blob)
		}
		if a, b := s.Fingerprint(), again.Fingerprint(); a != b {
			t.Fatalf("fingerprint changed across a round trip: %s vs %s\n%s", a, b, blob)
		}
	})
}
