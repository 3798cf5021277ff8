// Package sim is a test fixture stub: analyzers match sim.Engine by type
// name and the internal/sim import-path suffix, so this skeleton stands in
// for the real engine.
package sim

// Key mirrors the canonical same-instant ordering key.
type Key uint8

// Engine is the scheduling surface keyedevents inspects.
type Engine struct{}

func (e *Engine) Schedule(d float64, fn func())                               {}
func (e *Engine) ScheduleCall(d float64, fn func(v float64), v float64)       {}
func (e *Engine) At(t float64, fn func())                                     {}
func (e *Engine) AtCall(t float64, fn func(v float64), v float64)             {}
func (e *Engine) AtControl(t float64, fn func())                              {}
func (e *Engine) AtCallKeyed(t float64, k Key, fn func(v float64), v float64) {}
func (e *Engine) Now() float64                                                { return 0 }
