package core

// WaveStats hands the external benchmarks the cohort wave's host-side
// counts: how many times it exited and how many run-ahead retirements its
// exits took back.
func (m *Machine) WaveStats() (exits, takenBack uint64) { return m.waveExits, m.waveTakenBack }
