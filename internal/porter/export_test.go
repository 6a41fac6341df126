package porter

import "cxlfork/internal/des"

// Evict drops fn's published checkpoint as an eviction pass would.
func (p *Porter) Evict(fn string) { p.byName[fn].evict() }

// TouchCheckpoint records a restore served from fn's checkpoint at now.
func (p *Porter) TouchCheckpoint(fn string, now des.Time) { p.byName[fn].lastRestore = now }
