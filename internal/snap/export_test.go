package snap

// StateSlack exposes Capture's bound on unused buffer capacity.
const StateSlack = stateSlack

// Magic exposes the current format's magic, so a test can put a stale
// version behind it.
const Magic = magic
