package discovery

// Algorithm names a discovery algorithm.
type Algorithm string

// The available algorithms.
const (
	AlgCFDMiner  Algorithm = "cfdminer"  // constant CFDs only (§3)
	AlgCTANE     Algorithm = "ctane"     // levelwise general CFD discovery (§4)
	AlgFastCFD   Algorithm = "fastcfd"   // depth-first general CFD discovery with the closed-item-set optimisation (§5)
	AlgNaiveFast Algorithm = "naivefast" // FastCFD with partition-based difference sets (§5.4)
	AlgTANE      Algorithm = "tane"      // classical FD discovery baseline
	AlgFastFD    Algorithm = "fastfd"    // classical depth-first FD discovery baseline
	AlgBrute     Algorithm = "brute"     // exhaustive oracle (tiny inputs only)
)

// Algorithms lists every supported algorithm name, in a stable order.
func Algorithms() []Algorithm {
	return []Algorithm{AlgCFDMiner, AlgCTANE, AlgFastCFD, AlgNaiveFast, AlgTANE, AlgFastFD, AlgBrute}
}
