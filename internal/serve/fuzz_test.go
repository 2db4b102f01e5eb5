package serve

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzRequest decodes arbitrary bytes exactly as handleSubmit does and
// canonicalizes the result. Neither step may panic, and a canonical
// request must be a fixed point: it re-canonicalizes to a deep-equal
// request with the same 64-hex-digit key. A canonical run's JSON — what
// its summary.json embeds — must not depend on Parallel.
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
		if c.Kind == KindRun {
			par := *c
			par.Parallel = 4
			pc, err := par.Canonicalize()
			if err != nil {
				t.Fatalf("canonical run with parallel 4 rejected: %v", err)
			}
			want, _ := json.Marshal(c)
			if got, _ := json.Marshal(pc); !bytes.Equal(got, want) {
				t.Fatalf("parallel changed a canonical run's JSON:\n%s\n%s", want, got)
			}
		}
	})
}

// FuzzCacheLoad writes an arbitrary cache entry directory — manifest
// bytes and three artifact files, each present when its bit of layout is
// set — and looks it up through a fresh cache, as a restarted daemon
// does. Nothing may panic. A hit must return exactly the files the
// manifest lists, each with its listed digest; anything else must be a
// miss that returns no bytes and evicts the directory.
func FuzzCacheLoad(f *testing.F) {
	summary, counters := []byte("{\"cycles\":12345}\n"), []byte("seq,instrs\n0,99\n")
	good := manifestBytes(Artifacts{"summary.json": summary, "counters.csv": counters})
	flipped := bytes.Clone(summary)
	flipped[len(flipped)/2] ^= 0x20
	const manifest, sum, ctr, trace = 1, 2, 4, 8
	for _, seed := range []struct {
		manifest, summary []byte
		layout            uint8
	}{
		{good, summary, manifest | sum | ctr},         // what Put writes
		{good, flipped, manifest | sum | ctr},         // bit-flip
		{good, summary[:5], manifest | sum | ctr},     // truncate
		{good, summary, manifest | ctr},               // remove
		{good, summary, manifest | sum | ctr | trace}, // unlisted-file
		{good, summary, sum | ctr},                    // no-manifest
		{[]byte(`{"../summary.json":"00"}`), summary, manifest | sum},
		{[]byte(`{}`), nil, manifest},
		{[]byte(`[`), summary, manifest | sum | ctr},
	} {
		f.Add(seed.manifest, seed.summary, counters, []byte("{}\n"), seed.layout)
	}

	f.Fuzz(func(t *testing.T, manifest, summary, counters, trace []byte, layout uint8) {
		const key = "0123456789abcdef0123456789abcdef"
		dir := t.TempDir()
		entry := filepath.Join(dir, key)
		if err := os.Mkdir(entry, 0o755); err != nil {
			t.Fatal(err)
		}
		files := map[string][]byte{}
		for i, name := range []string{manifestName, "summary.json", "counters.csv", "trace.json"} {
			if layout&(1<<i) != 0 {
				files[name] = [][]byte{manifest, summary, counters, trace}[i]
				if err := os.WriteFile(filepath.Join(entry, name), files[name], 0o644); err != nil {
					t.Fatal(err)
				}
			}
		}
		c, err := NewCache(dir)
		if err != nil {
			t.Fatal(err)
		}
		art, ok := c.Get(key)
		if !ok {
			if art != nil {
				t.Fatalf("a miss returned %d artifacts", len(art))
			}
			if _, err := os.Stat(entry); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("rejected entry not evicted: %v", err)
			}
			return
		}
		var sums map[string]string
		if err := json.Unmarshal(manifest, &sums); err != nil || len(sums) != len(art) || len(files) != len(art)+1 {
			t.Fatalf("hit with %d artifacts from %d files against manifest %q", len(art), len(files), manifest)
		}
		for name, data := range art {
			if !bytes.Equal(data, files[name]) || digest(data) != sums[name] {
				t.Fatalf("hit served %s unverified: %q", name, data)
			}
		}
	})
}
