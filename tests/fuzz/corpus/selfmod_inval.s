! nfpfuzz reproducer
! seed: 7
! mix: selfmod
! divergence (under the since-removed unchained block loop): dispatch block vs step, checkpoint 1 (budget 53): cpu-digest step=2533734157348013595 got=3811777466100127743; 
! step instret: 65 (halted)
! nfpfuzz seed=7 mix=selfmod chunks=24
  .text
  .global _start
_start:
  mov 724, %o0
  mov 2219, %o3
  set Wt23, %g6
  ld [%g6], %g6
  set Wp23, %g5
  ld [%g5], %o3
  xor %o3, %g6, %g6
  mov 6, %g7
Lsm23:
  ld [%g5], %o3
  xor %o3, %g6, %o3
  st %o3, [%g5]
  ba Wp23
  nop
Wp23:
  add %o0, 257, %o0
  subcc %g7, 1, %g7
  bne Lsm23
  nop
  ta 0
  nop
Wt23:
  add %o0, 480, %o0
