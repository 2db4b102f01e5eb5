GO ?= go

.PHONY: build vet fmtcheck fmacheck test race smoke verify ci benchsmoke perfcheck equivgrid fuzzcheck resultscheck faultcheck servecheck snapcheck crashcheck soakcheck

build:
	$(GO) build ./...

# vet also type-checks the tree for a 32-bit host (GOARCH=386), where
# int is 32 bits wide and an over-wide constant fails to compile.
vet:
	$(GO) vet ./...
	GOARCH=386 $(GO) vet ./...

# fmtcheck fails when any file is not gofmt-clean.
fmtcheck:
	test -z "$$(gofmt -l .)"

# fmacheck: Go may fuse x*y+z into one rounding on arm64 (amd64 never
# does), which would make a reference checksum, or the raytracer scene
# written into its program, differ by host. Every such product is
# rounded with an explicit float64(...); this cross-builds each command
# for arm64 and fails on any fused multiply-add (FMADDD, FMSUBD,
# FNMADDD, FNMSUBD) in this module's own functions.
#
# This recipe and smoke, snapcheck and resultscheck each work in one
# fresh directory under $TMPDIR (default /tmp), removed on success and
# kept for inspection on failure. Make runs every recipe line in its own
# shell, so each chain that uses the directory is one line.
fmacheck:
	d=$$(mktemp -d "$${TMPDIR:-/tmp}/misp-fmacheck.XXXXXX") && \
	GOARCH=arm64 $(GO) build -o $$d/ ./cmd/... && \
	for f in $$d/*; do $(GO) tool objdump $$f > $$f.s || exit 1; done && \
	awk '/^TEXT /{fn = $$2; next} fn ~ /^misp\// && /[[:space:]]FN?M(ADD|SUB)D[[:space:]]/ && !seen[fn, $$1]++ {print fn, $$1, $$4, $$5, $$6, $$7, $$8; bad = 1} END{exit bad}' $$d/*.s && \
	rm -rf $$d

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# smoke runs mispsim -o end-to-end on one workload and checks that all
# four run files come out non-empty and that the run summary it prints
# reports the event log complete. TestRunFilesMatchServe in
# ./cmd/mispsim pins the files' bytes against the serve daemon's.
smoke:
	d=$$(mktemp -d "$${TMPDIR:-/tmp}/misp-smoke.XXXXXX") && \
	$(GO) run ./cmd/mispsim -w gauss -size test -o $$d > $$d/stdout && \
	test -s $$d/counters.csv && \
	test -s $$d/metrics.txt && \
	test -s $$d/trace.json && \
	test -s $$d/profile.txt && \
	grep -Eq '^trace coverage +complete' $$d/stdout && \
	rm -rf $$d

verify: build vet race smoke

# benchsmoke keeps the measuring code from rotting, ungated: the
# benchmark harness's self-tests (percentile rule, seeded streams, names
# vs BENCHMARK.json, a -size test pass of all four workloads) and one
# iteration of the core's per-layer benchmarks — the cohort wave (MISP
# 1x8, SMP 8, each with a cancelable and a background context, and MISP
# 1x24 with a background one; eight
# desynchronised loops with no memory ops, private ones, a shared word
# one member stores to, and a default-arm word that ends the wave every
# 64th instruction; seven members idling in a pause loop beside one
# worker, the regime the spin fast-forward skips) beside runUops on one
# sequencer, in ns per retired
# instruction, then one page's superblock compile and a data translation
# that hits and one that walks; and a cold prepare and a fork at 32 MiB,
# 128 MiB and 1 GiB of configured memory, each with its machine released
# for the next one and dropped as garbage; and the serve plane's cache
# read, a hit's POST ?wait=1 plus a GET of each artifact through the
# handler, with its allocations per hit.
benchsmoke:
	$(GO) test ./benchmark
	$(GO) test -run '^$$' -bench 'BenchmarkCohortWave|BenchmarkRunUops|BenchmarkSbCompile|BenchmarkTranslate' -benchtime=1x ./internal/core
	$(GO) test -run '^$$' -bench 'BenchmarkPrepare|BenchmarkFork' -benchtime=1x ./internal/workloads ./internal/snap
	$(GO) test -run '^$$' -bench 'BenchmarkServeHit' -benchtime=1x ./internal/serve

# perfcheck is for humans, ungated and not part of ci: two passes of the
# benchmark BENCHMARK.json declares (four workloads, end-to-end and
# per-layer metrics; see benchmark/README.md). What the simulator
# computes, as opposed to how fast, is gated in go test
# (TestGoldenCounters) and by equivgrid and resultscheck below.
perfcheck:
	$(GO) run ./benchmark -repeat 2

# equivgrid holds the fast loop to the legacy oracle on whole
# applications: 16 apps x {1P, MISP 1x8, SMP 8, MISP 1x4, SMP 4} at small size
# plus three at ref on MISP 1x8 — galgel (the one point that has diverged
# while every test-size difftest passed), raytracer (most seqid) and
# gauss (most acas + aadd), the behaviours that stay inside the
# cohort wave — and raytracer, gauss and swim at small size on MISP 1x24,
# one cohort of 24 — exact on instructions,
# cycles and per-sequencer clocks, retirements and TLB
# hits/misses/perm-misses, and on a digest of every resident physical
# frame.
equivgrid:
	$(GO) test -run TestEquivGrid ./internal/workloads -args -equivgrid

# fuzzcheck searches seeds nobody picked, a bounded time per target:
# generated shared-memory programs on 2-24 sequencers, fast loop vs legacy
# oracle on registers, clocks, retirements, TLB counters and memory;
# operation strings on a physical memory backed past its initial size —
# allocation, frees, every write path, bit flips, release and restore —
# held to a flat reference of the whole memory; and
# mutated snapshot images, seeded with the golden ones, which Load and
# Fork must reject with an error, never a panic, and whose forks must
# re-capture to a fixed point; mutated assembler sources, which must fail
# with an error or link to text whose every word validates and
# re-assembles from its disassembly; arbitrary instruction words,
# which must decode, validate and disassemble without panicking and, when
# canonical, re-assemble from their text; arbitrary submit bodies, whose
# canonical requests must re-canonicalize to themselves and their key;
# arbitrary cache entry directories, which must load only as exactly the
# files their manifest lists and digests, and otherwise miss and be
# evicted; and arbitrary journal files, whose every byte Open must
# account for and whose replayed records must survive a rotation. A
# crasher lands under testdata/fuzz and is committed as a seed.
fuzzcheck:
	$(GO) test -run '^$$' -fuzz FuzzWaveSharedMem -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzPhysBacking -fuzztime 10s ./internal/mem
	$(GO) test -run '^$$' -fuzz FuzzSnapshotFork -fuzztime 10s ./internal/snap
	$(GO) test -run '^$$' -fuzz FuzzAssemble -fuzztime 10s ./internal/asm
	$(GO) test -run '^$$' -fuzz FuzzInstrText -fuzztime 10s ./internal/asm
	$(GO) test -run '^$$' -fuzz FuzzRequest -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzCacheLoad -fuzztime 10s ./internal/serve
	$(GO) test -run '^$$' -fuzz FuzzJournalOpen -fuzztime 10s ./internal/journal

# resultscheck: results/ is exactly what the code produces. It
# regenerates every published CSV at -size small twice, serially and on
# every host core (-parallel only changes wall time), and compares each
# output set with the committed one: every CSV byte for byte, and
# PROVENANCE line for line except the build's version line, so a
# configuration change that moves no CSV still fails. A change that
# moves a number ships its regenerated results/ in the same commit:
#   go run ./cmd/mispbench -size small -csv results -parallel 0
# The serial pass must also report 172 simulation runs: the 128
# distinct cells of Figures 4 and 5, Table 1, A1, A2 and A3 (16 apps x
# 8), each run once however many experiments read it, plus Figure 7's
# 40 and A4's 4 multiprogrammed runs.
resultscheck:
	d=$$(mktemp -d "$${TMPDIR:-/tmp}/misp-resultscheck.XXXXXX") && \
	$(GO) build -o $$d/mispbench ./cmd/mispbench && \
	$$d/mispbench -size small -csv $$d/p1 -parallel 1 > $$d/p1.stdout && \
	{ grep -Eq '^simulation runs +172 *$$' $$d/p1.stdout || { echo "resultscheck: want simulation runs 172 in $$d/p1.stdout" >&2; exit 1; }; } && \
	$$d/mispbench -size small -csv $$d/pN -parallel 0 > /dev/null && \
	grep -v '^version ' results/PROVENANCE > $$d/provenance && \
	for r in $$d/p1 $$d/pN; do \
		diff -r -x PROVENANCE results $$r || exit 1; \
		grep -v '^version ' $$r/PROVENANCE | cmp - $$d/provenance || exit 1; \
	done && \
	rm -rf $$d

# faultcheck: the resilience gate. Runs the fixed-seed fault-campaign
# matrix (every campaign must complete with the right checksum or die
# in a structured Diagnosis — never hang, never panic) under the race
# detector, and pins the resilience sweep's CSV at test size with three
# seeds (TestResilienceGolden), computed serially and in parallel.
# The -run pattern is FAULT_TESTS joined with '|' (runlist); first,
# listcheck fails the gate when a name matches no test.
FAULT_TESTS = TestFaultEquiv TestWatchdog TestCycleLimit TestDiagnosis TestFaultCampaign \
	TestParforUnderAMSStalls TestParforAllProxiesLost TestParforSurvivesAMSKill \
	TestJoinSingleSequencer TestPthreadTimedjoin TestPreemptionUnder TestHealthCheck TestResilienceGolden
FAULT_PKGS = ./internal/core ./internal/fault ./internal/workloads ./internal/shredlib ./internal/kernel ./internal/exp
faultcheck:
	$(call listcheck,faultcheck,$(FAULT_TESTS),$(FAULT_PKGS))
	$(GO) test -race -run '$(call runlist,$(FAULT_TESTS))' $(FAULT_PKGS)

# A gate that runs a named list of tests keeps the names once and checks
# them first: $(call listcheck,GATE,NAMES,PKGS) fails when any name in
# NAMES matches no test that `go test -list` finds in PKGS, so a renamed
# test fails the gate instead of silently leaving it; $(call
# runlist,NAMES) is the names joined with '|' for -run.
empty :=
space := $(empty) $(empty)
runlist = $(subst $(space),|,$(strip $(1)))
listcheck = listed=$$($(GO) test -list . $(3) | grep '^Test') && \
	for n in $(2); do \
		echo "$$listed" | grep -q -- "$$n" || { echo "$(1): $$n matches no test in $(3)" >&2; exit 1; }; \
	done

# snapcheck: the snapshot/fork plane gate. Pins every golden image's
# bytes (TestCaptureGolden), rejects crafted counts without allocating
# for them (TestLoadRejectsHugeCounts), difftests the codec (capture
# → restore → run-to-completion bit-identical to the uninterrupted run,
# on both loops and under fault injection), the warm pool's fork-vs-cold
# parity, and mispsim's -snapshot/-restore crash-resume flow: the
# restored run must report the same cycle count and checksum as an
# uninterrupted one. It also holds the touched-frame capture to the
# full-scan encoder it replaced (byte-identical images), the memory
# recycler to fresh-array parity, and smoke-runs the capture benchmark
# once so it cannot rot (no ratio gate: the numbers are for reading, see
# DESIGN.md §12; the fork and prepare benchmarks run in benchsmoke).
# A canceled run is captured, forked and run on like a paused one
# (TestCaptureAfterCancel), the contract serve's preemption leans on.
# SNAP_TESTS is checked like FAULT_TESTS (listcheck).
SNAP_TESTS = TestCapture TestFork TestStructural TestPause TestMidRun TestSnapshotFile \
	TestLoadRejects TestWarmPool TestRecycle TestRelease
SNAP_PKGS = ./internal/mem ./internal/snap/... ./internal/workloads
snapcheck:
	$(call listcheck,snapcheck,$(SNAP_TESTS),$(SNAP_PKGS))
	$(GO) test -race -run '$(call runlist,$(SNAP_TESTS))' $(SNAP_PKGS)
	$(GO) test -run '^$$' -bench 'BenchmarkCapture' -benchtime=1x ./internal/snap
	d=$$(mktemp -d "$${TMPDIR:-/tmp}/misp-snapcheck.XXXXXX") && \
	$(GO) build -o $$d/mispsim ./cmd/mispsim && \
	$$d/mispsim -w gauss -size test -snapshot $$d/gauss.misp -snapat 60000 > /dev/null && \
	test -s $$d/gauss.misp && \
	$$d/mispsim -w gauss -size test -restore $$d/gauss.misp > $$d/resumed.txt && \
	$$d/mispsim -w gauss -size test > $$d/full.txt && \
	grep -E 'cycles|checksum' $$d/resumed.txt > $$d/resumed.key && \
	grep -E 'cycles|checksum' $$d/full.txt > $$d/full.key && \
	diff $$d/resumed.key $$d/full.key && \
	rm -rf $$d

# servecheck boots the mispserve daemon on a random port, submits a
# tiny run over HTTP, re-submits it, and asserts the second submission
# is a cache hit with byte-identical artifact bytes, then SIGTERMs the
# daemon and checks it drains cleanly.
servecheck:
	bash scripts/serve_smoke.sh

# crashcheck is the durability gate: the whole serve, journal and durable
# packages under -race (no -run list to rot: the journal codec property
# tests, the job state machine's replay enumeration, the checkpoint/
# resume byte-identity difftests and the in-process chaos harness are all
# in there), then the chaos smoke — 20 seeded SIGKILLs of a journaled
# daemon mid-job, each followed by a restart that must recover the job
# (never lost, never duplicated) and finish it with artifacts
# byte-identical to an uninterrupted run — or, when its done record beat
# the kill, have retired it, with a resubmission a cache hit of the same
# bytes.
crashcheck:
	$(GO) test -race ./internal/serve/ ./internal/journal/ ./internal/durable/
	bash scripts/crash_smoke.sh

# soakcheck is the overload-robustness gate: boot a daemon whose
# -mem-budget (128m) is below one machine's configured simulated
# memory, occupy its one worker with a serial small sweep, flood its
# one-slot queue with distinct tiny runs, and assert it admits without
# a 413, sheds with computed Retry-After hints (every 429 counted in
# serve.rejected.queue_full + serve.pressure.sheds), loses nothing it
# accepted, stays alive, and still drains cleanly on SIGTERM. The governance unit tests — drain estimator,
# pressure escalation, victim selection, preempt/resume byte-identity —
# live in internal/serve, which crashcheck and race run under -race.
soakcheck:
	bash scripts/overload_smoke.sh

# ci is the full gate run by the GitHub Actions workflow.
ci: build vet fmtcheck fmacheck test race smoke benchsmoke equivgrid fuzzcheck resultscheck faultcheck servecheck snapcheck crashcheck soakcheck
