% Fixed: the inliner renamed a callee local that shadows a builtin
% (`i`) even though the callee may read it before assigning it, where it
% still means √−1; the renamed read raised Undefined("__inl1_i").
% Such callees are no longer inlined.
% entry: f0
% arg: scalar 0.0
function r = f0(p0)
r = f1(p0);
function r = f1(p0)
if p0 > 1
  i = 5;
else
  t2 = i;
end
r = abs(i);
