package trace

import (
	"fmt"
	"strings"

	"stronghold/internal/sim"
)

// Gantt renders an ASCII occupancy chart: one row per track, the given
// width in character cells across the makespan. Each cell is '#' when
// the track is busy for more than half the cell, '.' otherwise. Useful
// for eyeballing overlap in terminals and test logs.
func (t *Trace) Gantt(width int) string {
	if width < 8 {
		width = 8
	}
	makespan := t.Makespan()
	if makespan == 0 || t.Len() == 0 {
		return "(empty trace)\n"
	}
	byTrack := map[string][][2]sim.Time{}
	var order []string
	for _, s := range t.spans {
		if _, ok := byTrack[s.Track]; !ok {
			order = append(order, s.Track)
		}
		byTrack[s.Track] = append(byTrack[s.Track], [2]sim.Time{s.Start, s.End})
	}
	nameW := 0
	for _, n := range order {
		if len(n) > nameW {
			nameW = len(n)
		}
	}
	cell := float64(makespan) / float64(width)
	var sb strings.Builder
	for _, track := range order {
		iv := normalize(byTrack[track])
		fmt.Fprintf(&sb, "%-*s |", nameW, track)
		for c := 0; c < width; c++ {
			lo := sim.Time(float64(c) * cell)
			hi := sim.Time(float64(c+1) * cell)
			cover := intersectionLength(iv, [][2]sim.Time{{lo, hi}})
			if float64(cover) > 0.5*cell {
				sb.WriteByte('#')
			} else if cover > 0 {
				sb.WriteByte('+')
			} else {
				sb.WriteByte('.')
			}
		}
		sb.WriteString("|\n")
	}
	return sb.String()
}
