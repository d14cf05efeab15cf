package data

// Step returns how many batches have been produced.
func (l *Loader) Step() int { return l.step }
