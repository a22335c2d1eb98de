//go:build race

package subckt

// raceEnabled: under the race detector sync.Pool drops items at random, so
// pooled scratch is reallocated and allocation pins cannot hold.
const raceEnabled = true
