"""Exact integer arithmetic for the reduction of flag-transitive symmetric designs.

Everything here is integer arithmetic; no floats are consulted for any
decision.  The API is the layer modules: `design`, `atlas`,
`diagonal`, `product`, `imprimitive`, `report` and `cli`.  Importing the
package itself loads none of them.
"""

__version__ = "0.1.0"
