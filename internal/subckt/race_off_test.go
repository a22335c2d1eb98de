//go:build !race

package subckt

// raceEnabled: see race_on_test.go.
const raceEnabled = false
