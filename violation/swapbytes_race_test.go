//go:build race

package violation_test

// swapRebuildBytesBound is the 9,946,688 B measured on amd64 with Go 1.24
// under the race detector for TestSwapRebuildAllocs' two swaps, plus 4 %.
// Sorting the ids of a set of one or two attributes on packed 64-bit keys
// allocated 10,929,760 B.
const swapRebuildBytesBound = 10_345_000
