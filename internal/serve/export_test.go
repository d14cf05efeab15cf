package serve

import "stronghold/internal/metrics"

// Stats exposes the server-side counter set.
func (s *Server) Stats() *metrics.ServeStats { return s.stats }
