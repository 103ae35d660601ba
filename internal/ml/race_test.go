//go:build race

package ml

func init() { raceEnabled = true }
