// Package helpers is the dependency of the crosspkg loader fixture; it
// is loaded to type-check crosspkg but not itself checked.
package helpers

import "time"

// Stamp imports time, a standard-library package Deps leaves out.
func Stamp() int64 { return time.Now().UnixNano() }
