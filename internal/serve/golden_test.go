package serve

import (
	"bytes"
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false,
	"rewrite testdata/golden_outputs.txt from this build (only for a deliberate change to what a run computes or how its artifacts render)")

const goldenOutputsPath = "testdata/golden_outputs.txt"

// checkGolden compares got, one point per line, with the file at path
// (whose first line is a header), or rewrites the file under -update.
func checkGolden(t *testing.T, path, header string, got []string) {
	t.Helper()
	if *updateGolden {
		if err := os.WriteFile(path, []byte(header+"\n"+strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")[1:] // drop the header
	if len(want) != len(got) {
		t.Fatalf("%s has %d points, this build made %d", path, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("%s:\n want %s\n  got %s", path, want[i], got[i])
		}
	}
}

// goldenFaultSeed is the fault point's seed: with every kind at a mean
// period of 2000 retirements the raytracer loses and recovers AMSs and
// still completes with the reference checksum.
const goldenFaultSeed = 9

// goldenRequests are the requests whose artifacts the golden gate pins,
// all at test size: a traced MISP 1x8 run, a MISP processor beside a
// plain one, thread mode on SMP 4, two MISP processors under the
// monitor-CR ring policy, a run with every fault kind injected, an
// evaluation sweep (Figure 4 and Table 1), and art, whose summary once
// reported checksum_ok false.
func goldenRequests() []struct {
	name string
	req  *Request
} {
	return []struct {
		name string
		req  *Request
	}{
		{"gauss-7-trace", &Request{App: "gauss", Size: "test", Topology: []int{7}, Trace: true}},
		{"raytracer-6,0", &Request{App: "raytracer", Size: "test", Topology: []int{6, 0}}},
		{"swim-thread-0,0,0,0", &Request{App: "swim", Mode: "thread", Size: "test", Topology: []int{0, 0, 0, 0}}},
		{"kmeans-3,3-monitor-cr", &Request{App: "kmeans", Size: "test", Topology: []int{3, 3}, RingPolicy: "monitor-cr"}},
		{"raytracer-faults-seed9", &Request{App: "raytracer", Size: "test", FaultSeed: goldenFaultSeed, FaultPeriod: 2_000}},
		{"sweep-eval", &Request{Kind: KindSweep, Exp: "eval", Size: "test", Apps: []string{"gauss", "swim", "dense_mmm"}}},
		{"art-7", &Request{App: "art", Size: "test", Topology: []int{7}}},
	}
}

// TestRunOutputsGolden pins what the service ships: the length and
// SHA-256 of every artifact Execute returns for each golden request. A
// refactor of the counters, the event log or the renderers must leave
// every line alone; a deliberate change to what a run computes or how
// an artifact renders rewrites the file with -update.
//
// The request's cache key is blanked before hashing (summary.json
// embeds it), so the pinned bytes are what the run computes, not which
// key names them.
func TestRunOutputsGolden(t *testing.T) {
	var got []string
	for _, g := range goldenRequests() {
		c := mustCanonical(t, g.req)
		art, res, err := Execute(context.Background(), c)
		if err != nil {
			t.Fatalf("%s: %v", g.name, err)
		}
		if !res.ChecksumOK {
			t.Errorf("%s: checksum does not match the reference", g.name)
		}
		for _, name := range art.Names() {
			data := bytes.ReplaceAll(art[name], []byte(c.Key()), nil)
			got = append(got, fmt.Sprintf("%s/%s %d %x", g.name, name, len(data), sha256.Sum256(data)))
		}
	}
	checkGolden(t, goldenOutputsPath,
		"# point/artifact bytes sha256; rewrite with: go test ./internal/serve -run TestRunOutputsGolden -update", got)

	// The cache key's result epoch is this file's digest: artifacts that
	// moved must not be served from entries an older build wrote.
	data, err := os.ReadFile(goldenOutputsPath)
	if err != nil {
		t.Fatal(err)
	}
	if epoch := fmt.Sprintf("%x", sha256.Sum256(data))[:12]; epoch != resultEpoch {
		t.Fatalf("resultEpoch is %q but %s hashes to %q: the artifacts moved, so set resultEpoch (request.go) to %q",
			resultEpoch, goldenOutputsPath, epoch, epoch)
	}
}
