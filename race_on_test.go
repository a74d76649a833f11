//go:build race

package hssort

// raceEnabled is true under the race detector, whose sync.Pool drops a
// share of what is put back, so allocation counts mean nothing there.
const raceEnabled = true
