package exp

import (
	"context"
	"errors"
	"fmt"

	"misp/internal/core"
	"misp/internal/fault"
	"misp/internal/obs"
	"misp/internal/report"
	"misp/internal/shredlib"
	"misp/internal/workloads"
)

// The resilience experiment sweeps fault rate × AMS count and measures
// how the recovery plane (core watchdog + kernel AMS health check)
// holds up: what fraction of seeded fault campaigns still complete
// with the correct checksum, what recovery cost the runs that
// completed, and how every non-completing run terminated. The contract
// under test is the robustness invariant: every run either completes
// correctly or ends in a structured fault.Diagnosis — never a hang,
// never a panic.
//
// All reported numbers are deterministic (simulated cycles, counts,
// seeded outcomes), so the CSV is byte-identical for any -parallel
// value, like every other experiment in this package.

// The sweep's grid, with every fault kind armed: AMS-per-processor
// points, and mean retirements-per-injection points sweeping fault
// pressure from rare to brutal.
var (
	resilienceAMS     = [...]int{1, 3, 7}
	resiliencePeriods = [...]uint64{200_000, 50_000, 10_000}
)

// ResilienceRow is one (AMS count, fault period) cell aggregated over
// its seeds.
type ResilienceRow struct {
	AMS    int
	Period uint64
	Seeds  int

	Completed int // finished with the correct checksum
	Diagnosed int // terminated with a structured fault.Diagnosis
	Corrupted int // finished, but the checksum is wrong (silent corruption)

	Injected  uint64 // total faults injected across the cell's runs
	Detected  uint64 // faults the watchdog / health check noticed
	Recovered uint64 // faults repaired (proxy re-posts, shred requeues)

	// MeanOverhead is the mean cycles ratio of completed runs vs the
	// fault-free baseline on the same topology (1.0 = free recovery).
	MeanOverhead float64
	// MeanRecoveryLat is the mean detection-to-repair latency in
	// cycles across the cell's recoveries (0 when none).
	MeanRecoveryLat float64
}

// campaignRun is one job's deterministic extract.
type campaignRun struct {
	outcome   string // "ok", "diagnosed", "corrupted"
	cycles    uint64 // process cycles ("ok") or machine clock at stop
	injected  uint64
	detected  uint64
	recovered uint64
	latSum    uint64
	latCount  uint64
}

// Resilience runs the fault-campaign sweep: seeds campaigns (default
// 5) per grid cell on opt.Apps[0] (default dense_mmm). The warm pool
// pays off especially well here: every campaign in a topology cell
// shares one prepared image, since the fault plane is a run-only
// override. A fault-free baseline that fails, or a campaign that dies
// in a way that cannot even be expressed as a Diagnosis, is a bug in
// the recovery plane — not a data point — and fails the experiment.
// Campaigns the kernel killed (e.g. a bit flip segfaulted the guest)
// are upgraded to a Diagnosis here, exactly as a production harness
// would.
func Resilience(opt Options, seeds int) ([]ResilienceRow, error) {
	opt.defaults()
	app := "dense_mmm"
	if len(opt.Apps) > 0 {
		app = opt.Apps[0]
	}
	if seeds == 0 {
		seeds = 5
	}
	w, err := workloads.ByName(app)
	if err != nil {
		return nil, err
	}
	nA, nP, nS := len(resilienceAMS), len(resiliencePeriods), seeds
	// Jobs 0..nA-1 are the fault-free baselines (one per topology); the
	// campaigns follow in (ams, period, seed) order.
	runs, err := grid(&opt, nA+nA*nP*nS, func(ctx context.Context, i int) (campaignRun, error) {
		var cfg core.Config
		if i < nA {
			cfg = workloads.DefaultConfig(core.Topology{resilienceAMS[i]})
		} else {
			j := i - nA
			ai, pi, si := j/(nP*nS), (j/nS)%nP, j%nS
			cfg = workloads.DefaultConfig(core.Topology{resilienceAMS[ai]})
			cfg.Fault = fault.Uniform(uint64(si)*1_000_003+7, resiliencePeriods[pi])
		}
		pr, err := opt.Warm.Prepare(w, shredlib.ModeShred, cfg, opt.Size, 0)
		if err != nil {
			return campaignRun{}, err
		}
		defer pr.Release()
		res, runErr := pr.RunCtx(ctx)
		out := campaignRun{cycles: pr.Machine.MaxClock()}
		if plan := pr.Machine.FaultPlan(); plan != nil {
			out.injected = plan.Total()
		}
		out.detected = pr.Kernel.Stats.Detected + pr.Machine.WatchdogTrips()
		out.recovered = pr.Kernel.Stats.Recovered
		lat := pr.Machine.Obs.Metrics.Histogram(obs.MFaultRecoveryLat)
		out.latSum, out.latCount = lat.Sum(), lat.Count()
		switch {
		case runErr == nil:
			if err := checkRun(w, res, "resilience", opt.Size); err != nil {
				if i < nA {
					return campaignRun{}, err // the baseline must be correct
				}
				out.outcome = "corrupted"
			} else {
				out.outcome = "ok"
				out.cycles = res.Cycles
			}
		case errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded):
			// A host-side abort is not a campaign outcome.
			return campaignRun{}, runErr
		case isDiagnosis(runErr):
			if i < nA {
				return campaignRun{}, runErr
			}
			out.outcome = "diagnosed"
		case i >= nA:
			out.outcome = "diagnosed"
		default:
			return campaignRun{}, runErr
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}

	var rows []ResilienceRow
	for ai, ams := range resilienceAMS {
		base := runs[ai].cycles
		for pi, period := range resiliencePeriods {
			row := ResilienceRow{AMS: ams, Period: period, Seeds: nS}
			var overheadSum float64
			var latSum, latCount uint64
			for si := 0; si < nS; si++ {
				r := runs[nA+ai*nP*nS+pi*nS+si]
				switch r.outcome {
				case "ok":
					row.Completed++
					if base > 0 {
						overheadSum += float64(r.cycles) / float64(base)
					}
				case "diagnosed":
					row.Diagnosed++
				case "corrupted":
					row.Corrupted++
				}
				row.Injected += r.injected
				row.Detected += r.detected
				row.Recovered += r.recovered
				latSum += r.latSum
				latCount += r.latCount
			}
			if row.Completed > 0 {
				row.MeanOverhead = overheadSum / float64(row.Completed)
			}
			if latCount > 0 {
				row.MeanRecoveryLat = float64(latSum) / float64(latCount)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

func isDiagnosis(err error) bool {
	var d *fault.Diagnosis
	return errors.As(err, &d)
}

// ResilienceTable renders the sweep.
func ResilienceTable(rows []ResilienceRow) *report.Table {
	t := &report.Table{
		Title: "Resilience — fault rate x AMS count (seeded campaigns)",
		Cols: []string{"ams", "period", "seeds", "ok", "diagnosed", "corrupted",
			"completion", "injected", "detected", "recovered", "overhead", "recov lat"},
	}
	for _, r := range rows {
		t.Add(r.AMS, r.Period, r.Seeds, r.Completed, r.Diagnosed, r.Corrupted,
			fmt.Sprintf("%.0f%%", 100*float64(r.Completed)/float64(r.Seeds)),
			r.Injected, r.Detected, r.Recovered,
			fmt.Sprintf("%.3fx", r.MeanOverhead),
			fmt.Sprintf("%.0f", r.MeanRecoveryLat))
	}
	return t
}
