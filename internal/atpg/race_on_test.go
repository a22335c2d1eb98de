//go:build race

package atpg

// refStride thins the reference comparisons of the heaviest cases under
// the race detector, which slows the single-goroutine reference engine
// about fifteenfold without adding anything to check in it. The plain
// test run compares every call.
const refStride = 10
