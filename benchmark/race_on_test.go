//go:build race

package main

// raceEnabled lets the smoke test drop its time limit under the race
// detector, which slows the sorts several times over.
const raceEnabled = true
