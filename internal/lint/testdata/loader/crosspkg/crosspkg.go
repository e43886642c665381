// Package crosspkg is the loader's cross-package fixture: it imports a
// helper package from beneath its own directory, which imports the
// standard library. Its module-internal import closure (Loader.Deps) is
// the two fixture packages, without time.
package crosspkg

import "paragon/internal/lint/testdata/loader/crosspkg/helpers"

// Entry calls into the helper package.
func Entry() int64 { return helpers.Stamp() }
