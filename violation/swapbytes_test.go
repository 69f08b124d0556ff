//go:build !race

package violation_test

// swapRebuildBytesBound is the 8,603,000 B measured on amd64 with Go 1.24 for
// TestSwapRebuildAllocs' two swaps, plus 3 % (the race detector reads more:
// see swapbytes_race_test.go). Sorting the ids of a set of one or two
// attributes on packed 64-bit keys, two buffers of them beside the ids,
// allocated 9,094,536 B.
const swapRebuildBytesBound = 8_861_000
