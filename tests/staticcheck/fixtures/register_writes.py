"""Known-bad fixture for ``KC004``: register outputs written outside
``repro.sim`` other than through ``Kernel.write_register``.

This file is *parsed*, never imported: each line with a plant marker writes
``.q`` around the kernel's door; the rest must stay finding-free.
"""


def poke(link, value):
    link.register.q = value  # PLANT:KC004-assign


def poke_pair(first, second, value):
    first.q, second.name = value, "b"  # PLANT:KC004-tuple


def poke_all(registers, value):
    for register in registers:
        setattr(register, "q", value)  # PLANT:KC004-setattr


def through_the_door(kernel, register, value):
    kernel.write_register(register, value)
    register.qq = value
    seen = register.q
    setattr(register, "name", seen)
    by_output = {}
    by_output[register.q] = register.name
