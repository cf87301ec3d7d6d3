"""Square variation of partial-sum sequences: exact computation, certified
bounds, interval-family machinery, and a reproducible Monte Carlo lab.

The package exports nothing, so that `import sqvar` loads no numpy before
`sqvar.cli` has set the BLAS threading; import the submodules instead
(`from sqvar import variation`, `from sqvar.seqcore import prefix_sums`)."""

__version__ = "0.1.0"
