package metrics

// Timeline returns the named series (nil when absent).
func (c *Collector) Timeline(series string) *Timeline { return c.timelines[series] }
