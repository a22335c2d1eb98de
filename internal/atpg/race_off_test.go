//go:build !race

package atpg

// refStride: see race_on_test.go.
const refStride = 1
