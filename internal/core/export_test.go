package core

// StatsDelta exposes the session's per-call stats delta to external tests.
var StatsDelta = statsDelta
