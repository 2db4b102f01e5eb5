package core

// noEvent is the event time of a sequencer with no self-wakeable event
// (parked states); it sorts after every real event time.
const noEvent = ^uint64(0)
