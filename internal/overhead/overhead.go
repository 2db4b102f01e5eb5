// Package overhead implements the paper's analytic MISP overhead
// models (§5.1, Equations 1–3) and the signal-dependent cycles they
// predict (§5.3), which ablation A3 checks against the measured signal
// sweep.
package overhead

import "misp/internal/core"

// Serialize is Equation 1: the overhead of one OMS ring-transition
// episode — one signal to suspend all AMSs, the privileged service
// time, and one signal to resume them.
//
//	serialize = 2*signal + priv
func Serialize(signal, priv uint64) uint64 { return 2*signal + priv }

// ProxyEgress is Equation 2: the overhead incurred by a shred that
// requires proxy execution — notify the OMS, suspend all active AMSs,
// resume all AMSs afterwards.
//
//	proxy_egress = 3*signal
func ProxyEgress(signal uint64) uint64 { return 3 * signal }

// ProxyIngress is Equation 3: the overhead incurred by the OMS to
// handle a proxy request — receive the signal plus one serialization.
//
//	proxy_ingress = signal + serialize
func ProxyIngress(signal, priv uint64) uint64 { return signal + Serialize(signal, priv) }

// Events summarizes the serializing activity of one MISP-processor run,
// split by origin exactly as §5.3 does: "we calculate the additional
// OMS overhead by first separating the events into those that originate
// on the OMS and those that originate on an AMS."
type Events struct {
	OMS uint64 // serializing events originating on the OMS (Table 1 OMS columns)
	AMS uint64 // proxy-execution events originating on AMSs (Table 1 AMS columns)
}

// Collect gathers Events from a finished machine.
func Collect(m *core.Machine) Events {
	var ev Events
	for _, s := range m.Seqs {
		if s.IsOMS {
			ev.OMS += s.C.SerializingEvents()
		} else {
			ev.AMS += s.C.ProxyEvents()
		}
	}
	return ev
}

// SignalCycles returns the signal-dependent cycles added by the MISP
// mechanisms for a given inter-sequencer signal cost: Equation 1's two
// signals per OMS-origin event and Equation 2's three signals per
// AMS-origin event (priv is hardware-independent and cancels when
// comparing signal costs, as in §5.3).
func SignalCycles(ev Events, signal uint64) uint64 {
	return ev.OMS*2*signal + ev.AMS*3*signal
}
