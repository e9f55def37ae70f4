// Package rt mirrors a real-time package (rpcnet, obs): walltime
// is off by policy, so clock reads are clean here.
package rt

import "time"

// Stamp reads the machine clock; exempt by policy.
func Stamp() time.Time { return time.Now() }
