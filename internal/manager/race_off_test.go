//go:build !race

package manager

// raceBuild reports whether the race detector is on (see race_on_test.go).
const raceBuild = false
