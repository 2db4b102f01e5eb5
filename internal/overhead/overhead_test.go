package overhead

import (
	"testing"
	"testing/quick"
)

func TestEquations(t *testing.T) {
	// Paper §5.1 with the §5.2 cost assumption signal = 5000.
	if got := Serialize(5000, 700); got != 10700 {
		t.Errorf("Serialize = %d, want 10700", got)
	}
	if got := ProxyEgress(5000); got != 15000 {
		t.Errorf("ProxyEgress = %d, want 15000", got)
	}
	if got := ProxyIngress(5000, 700); got != 5000+10700 {
		t.Errorf("ProxyIngress = %d, want 15700", got)
	}
}

func TestEquationIdentities(t *testing.T) {
	// Structural identities from §5.1 must hold for any cost values.
	f := func(signal, priv uint32) bool {
		s, p := uint64(signal), uint64(priv)
		if ProxyIngress(s, p) != s+Serialize(s, p) {
			return false
		}
		if Serialize(s, p)-p != 2*s {
			return false
		}
		return ProxyEgress(s) == 3*s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSignalCyclesLinear(t *testing.T) {
	f := func(oms, ams uint16, sig uint16) bool {
		ev := Events{OMS: uint64(oms), AMS: uint64(ams)}
		// Linear in signal cost; zero at zero.
		if SignalCycles(ev, 0) != 0 {
			return false
		}
		return SignalCycles(ev, uint64(sig))*2 == SignalCycles(ev, uint64(sig)*2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
