// Package cryptoboundary forbids raw cryptographic primitive calls
// outside the internal/crypto package.
//
// All signing and protocol hashing in the fail-aware stack goes through
// faust/internal/crypto, whose helpers prepend the domain-separation
// tags of Algorithm 1 (DomainSubmit/Commit) and feed the
// observability counters. A raw ed25519.Sign or sha256.Sum256 call
// anywhere else can silently bypass that discipline — a signature
// issued without its domain tag is exactly the cross-protocol confusion
// the tags exist to prevent, and a digest computed outside the helpers
// escapes both the domain conventions and the crypto metrics.
//
// Flagged outside packages whose import path ends in internal/crypto:
//
//   - calls to crypto/ed25519 Sign, Verify, VerifyWithOptions,
//     GenerateKey, NewKeyFromSeed, and the PrivateKey.Sign method
//   - calls to crypto/sha256 New, New224, Sum224, Sum256
//
// Constants (ed25519.PublicKeySize, sha256.Size) stay usable — only
// the operations are guarded.
package cryptoboundary

import (
	"go/ast"
	"go/types"
	"strings"

	"golang.org/x/tools/go/analysis"
	"golang.org/x/tools/go/analysis/passes/inspect"
	"golang.org/x/tools/go/ast/inspector"

	"faust/tools/faustlint/internal/directive"
)

// Analyzer is the cryptoboundary analyzer.
var Analyzer = &analysis.Analyzer{
	Name:     "cryptoboundary",
	Doc:      "forbids raw ed25519/sha256 operations outside internal/crypto (domain-prefix discipline)",
	Requires: []*analysis.Analyzer{inspect.Analyzer},
	Run:      run,
}

var forbidden = map[string]map[string]bool{
	"crypto/ed25519": {
		"Sign":              true,
		"Verify":            true,
		"VerifyWithOptions": true,
		"GenerateKey":       true,
		"NewKeyFromSeed":    true,
	},
	"crypto/sha256": {
		"New":    true,
		"New224": true,
		"Sum224": true,
		"Sum256": true,
	},
}

var _ = directive.Register(Analyzer.Name)

func run(pass *analysis.Pass) (interface{}, error) {
	if strings.HasSuffix(pass.Pkg.Path(), "internal/crypto") {
		return nil, nil // the one package allowed to touch primitives
	}
	dp := directive.New(pass)
	ins := pass.ResultOf[inspect.Analyzer].(*inspector.Inspector)

	ins.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		obj := pass.TypesInfo.Uses[sel.Sel]
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() == nil {
			return
		}
		pkgPath, name := fn.Pkg().Path(), fn.Name()
		if names, ok := forbidden[pkgPath]; ok && names[name] {
			dp.Reportf(call.Pos(),
				"raw %s.%s outside internal/crypto bypasses the domain-prefix discipline; use the faust/internal/crypto helpers (Hash/HashInto, Signer.Sign, Keyring.Verify)",
				pathBase(pkgPath), name)
			return
		}
		// (ed25519.PrivateKey).Sign — the crypto.Signer interface route
		// around the package-level function.
		if pkgPath == "crypto/ed25519" && name == "Sign" {
			dp.Reportf(call.Pos(),
				"raw ed25519 PrivateKey.Sign outside internal/crypto bypasses the domain-prefix discipline; use Signer.Sign")
		}
	})
	return nil, nil
}

func pathBase(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[i+1:]
	}
	return p
}
