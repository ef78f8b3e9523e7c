"""One benchmark for the whole request path (see bench/README.md).

Self-contained: nothing under ``src/`` imports this package, and this
package reaches the system only through its public functions.
"""
