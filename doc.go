// Package repro reproduces "Workflow and Process Synchronization with
// Interaction Expressions and Graphs" (C. Heinlein, ICDE 2001) as a Go
// library. Import repro/ix for the public API; see README.md for the
// architecture and the paper's figures and claims, and bench/README.md
// for the end-to-end benchmark. The root package only anchors the
// module's Go benchmarks (bench_test.go).
package repro
