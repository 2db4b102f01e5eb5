package serve

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzRequest decodes arbitrary bytes exactly as handleSubmit does and
// canonicalizes the result. Neither step may panic, and a canonical
// request must be a fixed point: it re-canonicalizes to a deep-equal
// request with the same 64-hex-digit key.
func FuzzRequest(f *testing.F) {
	seeds := []*Request{tinyRun(), {Kind: KindSweep, Apps: []string{"dense_mmm", "kmeans"}, Size: "test", Seqs: 4, Parallel: 4}}
	for _, g := range goldenRequests() {
		seeds = append(seeds, g.req)
	}
	sc := uint64(0)
	faulty := tinyRun()
	faulty.FaultPeriod, faulty.FaultKinds, faulty.SignalCost = 50_000, []string{"ams-stall", "signal-drop", "ams-stall"}, &sc
	seeds = append(seeds, faulty)
	for _, r := range seeds {
		b, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{
		``, `{}`, `null`, `[]`, `{"kind":"sweep","exp":"fig5"}`, `{"app":"gauss","bogus":1}`,
		`{"app":"gauss","topology":[-1]}`, `{"app":"gauss","topology":[70]}`, `{"app":"gauss","mode":"threads"}`,
		`{"app":"gauss","signal_cost":-1}`, `{"kind":"sweep","seqs":64}`, `{"app":"gauss","priority":"urgent","parallel":-3}`,
	} {
		f.Add([]byte(s))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var req Request
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return
		}
		c, err := req.Canonicalize()
		if err != nil {
			return
		}
		again, err := c.Canonicalize()
		if err != nil {
			t.Fatalf("canonical request %+v rejected: %v", c, err)
		}
		if !reflect.DeepEqual(again, c) {
			t.Fatalf("canonicalization is not a fixed point:\n%+v\n%+v", c, again)
		}
		key := c.Key()
		if raw, err := hex.DecodeString(key); err != nil || len(raw) != 32 {
			t.Fatalf("key %q is not 64 hex digits", key)
		}
		if again.Key() != key {
			t.Fatalf("re-canonicalized key %s, want %s", again.Key(), key)
		}
	})
}
