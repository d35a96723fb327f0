//go:build race

package manager

// raceBuild reports whether the race detector is on. Its runtime drops
// some sync.Pool Puts on purpose, so a reading that counts on a pooled
// buffer being reused varies from run to run.
const raceBuild = true
