package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"misp/internal/snap/wire"
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

// FuzzCacheLoad writes arbitrary bytes as a cache entry file and looks
// the key up through a fresh cache, as a restarted daemon does. Nothing
// may panic. A hit must re-encode to exactly the bytes on disk, so it
// can serve nothing Put would not have written; anything else must be
// a miss that returns no bytes and evicts the file.
func FuzzCacheLoad(f *testing.F) {
	summary, counters := "{\"cycles\":12345}\n", "seq,instrs\n0,99\n"
	good, err := encodeEntry(Artifacts{"summary.json": []byte(summary), "counters.csv": []byte(counters)})
	if err != nil {
		f.Fatal(err)
	}
	flipped := bytes.Clone(good)
	flipped[len(flipped)/2] ^= 0x20
	for _, seed := range [][]byte{
		good,                         // what Put writes
		flipped,                      // bit-flip
		good[:len(good)-5],           // truncation
		append(bytes.Clone(good), 0), // trailing bytes
		{},                           // empty file
		entryBytes("../x", summary),
		entryBytes(".manifest", "{}\n"),
		entryBytes("summary.json", summary, "counters.csv", counters), // names out of order
		entryBytes(), // no artifacts
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		const key = "0123456789abcdef0123456789abcdef"
		dir := t.TempDir()
		path := filepath.Join(dir, key)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
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
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("rejected entry not evicted: %v", err)
			}
			return
		}
		again, err := encodeEntry(art)
		if err != nil || !bytes.Equal(again, data) {
			t.Fatalf("hit with %d artifacts does not re-encode to the entry file (%v)", len(art), err)
		}
	})
}

// entryBytes encodes name, blob pairs as a cache entry file, in the
// order given and with a valid digest but no name checks: the entries
// Put refuses to write.
func entryBytes(pairs ...string) []byte {
	c := wire.NewEncoder(0)
	c.Count(len(pairs) / 2)
	for i := 0; i < len(pairs); i += 2 {
		name, data := pairs[i], []byte(pairs[i+1])
		c.String(&name)
		c.Blob(&data)
	}
	sum := sha256.Sum256(c.Bytes())
	return slices.Concat([]byte(entryMagic), sum[:], c.Bytes())
}
