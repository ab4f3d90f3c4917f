"""Table name of the former two-word path.

The alias is the class itself (not a subclass): one table serves every
key width, and code that looks up ``TwoWordHashTable.__dict__`` finds
the same methods.
"""

from ..core.hashtable import ConcurrentHashTable

TwoWordHashTable = ConcurrentHashTable

__all__ = ["TwoWordHashTable"]
