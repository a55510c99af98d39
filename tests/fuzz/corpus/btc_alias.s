! nfpfuzz reproducer (directed)
! seed: n/a (hand-written regression program)
! mix: jmpl
! divergence: none on current simulator; guards BTC aliasing. Two
!   register-indirect return sites 2048 bytes apart collide in the jit's
!   512-entry inline branch-target cache ((pc >> 2) & 511), so every
!   return evicts the other site's entry; kept as a dispatch-equality
!   input.
! step instret: loop of 40 iterations, two indirect calls each
  .text
  .global _start
_start:
  clr %l0
  clr %o0
  set f1, %g1
  set f2, %g2
loop:
  jmpl %g1, %o7
  nop
  ba mid
  nop
  .space 2032
mid:
  jmpl %g2, %o7
  nop
  add %l0, 1, %l0
  cmp %l0, 40
  bne loop
  nop
  ta 0
  nop
f1:
  retl
  add %o0, 1, %o0
f2:
  retl
  add %o0, 2, %o0
