package snap

// StateSlack exposes Capture's bound on unused buffer capacity.
const StateSlack = stateSlack
