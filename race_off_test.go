//go:build !race

package hssort

const raceEnabled = false
